"""The benchmark's workloads: inputs, one op, and the checks on its output.

Each workload prepares its inputs from the seed, runs ops in a fixed cycle
over them, and checks every op's output apart from timing it.  A check
returns the list of what went wrong; an empty list is a pass.

* jet-n3: potential -> validated jet.  Geometry, series and scalars only.
* routes-n3: validated jet -> closed form and engine -> comparison.  The
  jets are built during set-up, so the ops exercise the two routes only.
* certify-n3: the user path through `bergman.cli.main`, in process: write
  the potential JSON, `jet build`, then `b1 crosscheck`.
* certify-n4: the same at (n, q) = (4, 2), the smallest size where every
  block of the closed form is reached.  Not a listed workload: one op takes
  about 90 s here, and it fails today (the known closed-form sign defect at
  q >= 2, n - q >= 2), so it is run by hand to show that failure is counted.

`smoke` shrinks every workload to n = 2 so the whole harness runs in
seconds; smoke runs skip the pinned references, which are for full size.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random

import bergman
from bergman import cli, closed_form, perturbation
from bergman.exterior import ExteriorEndo
from bergman.geometry import GeometryJet

import gen

POOL = 8  # distinct inputs per run for the workloads that build jets in an op


def digest(endo: ExteriorEndo) -> str:
    blob = json.dumps(endo.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _b1_checks(closed, engine, trace) -> list[str]:
    """The engine's b_1 against the closed form, its own adjoint and b1_trace."""
    bad = []
    if closed.endo != engine.endo:
        bad.append("closed form != engine")
    if engine.endo != engine.endo.adjoint():
        bad.append("engine b_1 not self-adjoint")
    if engine.trace != trace:
        bad.append("engine trace != b1_trace")
    return bad


def _perturbed(result):
    """The same b_1 result with one matrix entry off by one: a wrong result."""
    endo = result.endo
    key = min(endo.entries) if endo.entries else (0, 0)
    bump = ExteriorEndo(endo.alg, {key: bergman.ExactScalar.one()})
    return dataclasses.replace(result, endo=endo + bump)


class Workload:
    name = ""
    cycle = 1  # ops per cycle; a run measures whole cycles

    def __init__(self, seed: int, smoke: bool, workdir: str, inject_fault: bool):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.n = 2 if smoke else self.full_n
        self.workdir = workdir
        self.inject_fault = inject_fault

    def q(self, q: int) -> int:
        return min(q, self.n - 1)

    def prepare(self) -> None:
        """Set-up work that belongs to the program (timed as part of set-up)."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[list[str], dict[str, str]]:
        """Failures of op i's output, and the facts pinned as references."""
        raise NotImplementedError


class JetN3(Workload):
    name = "jet-n3"
    full_n = 3
    cycle = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = [(self.q(1 + k % 2), gen.potential(self.rng, self.n, self.q(1 + k % 2)))
                       for k in range(POOL)]

    def op(self, i: int):
        q, pot = self.inputs[i % POOL]
        phi = bergman.parse_potential(pot, self.n)
        jet = bergman.jet_from_potential(phi, n=self.n, q=q)
        return jet, bergman.validate_jet(jet)

    def check(self, i: int, out):
        jet, report = out
        bad = [] if report.ok else ["validate_jet failed"]
        if not bergman.identity_suite(jet).ok:
            bad.append("identity_suite failed")
        return bad, {"jet_id": jet.jet_id}


class RoutesN3(Workload):
    name = "routes-n3"
    full_n = 3
    cycle = 3

    def __init__(self, *args):
        super().__init__(*args)
        n = self.n
        self.inputs = [
            (self.q(1), 1, gen.potential(self.rng, n, self.q(1)), None),
            (self.q(2), 1, gen.potential(self.rng, n, self.q(2)), None),
            (self.q(1), 2, gen.potential(self.rng, n, self.q(1)), gen.diagonal_twist(self.rng, n)),
        ]
        self.jets: list[GeometryJet] = []

    def prepare(self) -> None:
        for q, rk_e, pot, twist in self.inputs:
            phi_e = bergman.parse_potential(twist, self.n) if twist else None
            self.jets.append(bergman.jet_from_potential(
                bergman.parse_potential(pot, self.n), phi_e, n=self.n, q=q, rk_e=rk_e))

    def op(self, i: int):
        jet = self.jets[i % self.cycle]
        report = bergman.validate_jet(jet)
        closed = bergman.b1_formula(jet, check=False)
        engine = bergman.b1_engine(jet, check=False)
        trace = bergman.b1_trace(jet, check=False)
        return jet, report, closed, engine, trace, closed.endo == engine.endo

    def check(self, i: int, out):
        jet, report, closed, engine, trace, _ = out
        if self.inject_fault:
            engine = _perturbed(engine)
        bad = [] if report.ok else ["validate_jet failed"]
        bad += _b1_checks(closed, engine, trace)
        return bad, {"jet_id": jet.jet_id, "b1_digest": digest(engine.endo)}


class CertifyN3(Workload):
    """One op is `jet build` then `b1 crosscheck` through `cli.main`."""

    name = "certify-n3"
    full_n = 3
    q_full = 2
    pool = POOL

    def __init__(self, *args):
        super().__init__(*args)
        self.sig = self.q(self.q_full)
        self.inputs = [gen.potential(self.rng, self.n, self.sig) for _ in range(self.pool)]
        self.results: dict[str, object] = {}

        # Keep what the CLI computes, for the checks.  The lookup goes through
        # the module each call, so tracing wrappers installed later still run.
        def capture(module, attr):
            def wrapper(*args, **kwargs):
                res = getattr(module, attr)(*args, **kwargs)
                self.results[attr] = res
                return res
            setattr(cli, attr, wrapper)

        capture(closed_form, "b1_formula")
        capture(perturbation, "b1_engine")

    def jet_path(self, i: int) -> str:
        return os.path.join(self.workdir, f"jet-{i % self.pool}.json")

    def op(self, i: int):
        pot_path = os.path.join(self.workdir, "potential.json")
        jet_path = self.jet_path(i)
        self.results.clear()
        with open(pot_path, "w") as fh:
            json.dump(self.inputs[i % self.pool], fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_build = cli.main(["jet", "build", "--potential", pot_path, "--n", str(self.n),
                                 "--q", str(self.sig), "--out", jet_path])
            rc_cross = cli.main(["b1", "crosscheck", "--jet", jet_path])
        return rc_build, rc_cross, out.getvalue(), dict(self.results)

    def check(self, i: int, out):
        rc_build, rc_cross, text, results = out
        bad = []
        if rc_build != 0:
            bad.append(f"jet build exit {rc_build}")
        if rc_cross != 0:
            bad.append(f"b1 crosscheck exit {rc_cross}")
        with open(self.jet_path(i)) as fh:
            jet = GeometryJet.from_json(json.load(fh))
        report = text[text.index("{"):] if "{" in text else "{}"
        if json.loads(report).get("match") is not True:
            bad.append("crosscheck reports no match")
        if f"wrote jet {jet.jet_id} " not in text:
            bad.append("jet build reported another jet_id")
        facts = {"jet_id": jet.jet_id}
        engine = results.get("b1_engine")
        closed = results.get("b1_formula")
        if engine is None or closed is None:
            bad.append("crosscheck did not run both routes")
        else:
            if self.inject_fault:
                engine = _perturbed(engine)
            bad += _b1_checks(closed, engine, bergman.b1_trace(jet, check=False))
            facts["b1_digest"] = digest(engine.endo)
        return bad, facts


class CertifyN4(CertifyN3):
    name = "certify-n4"
    full_n = 4
    pool = 1


WORKLOADS = {w.name: w for w in (JetN3, RoutesN3, CertifyN3, CertifyN4)}
