"""Byte-identity pins of the mixed, lp, mpi and pi traces on every fixture.

Each run below writes its trace as CSV and as JSON, with every row's
wall_time zeroed, and the sha256 of each text must equal the value
pinned here.  The pins were taken before the mixed loop's fast paths
(the gathered F_theta floor, the pair-cost flag of `pair_backup`, the
supplied M(Q) of `greedy_select`, the per-run B index), so they show
that those paths leave every recorded float, policy, B set and count
unchanged.  The runs cover the finite-nk, exact, masked, clamped,
epsilon-greedy and partial-B paths; the affine fixtures admit none of
these algorithms.  The pi pins (policy iteration from the cheapest
control and from the greedy policy for J0) were taken before a policy
built from choices was read by gathering at its chosen pairs, in T_mu
and the induced chain.  The lp pins with clamps and with an initial
policy (FX-P4 has no policy but the greedy one) were taken while the
mixed and lp methods still ran as two loops, before they became one.
A run that reaches its cap is pinned through the SolveResult that its
SolverCapError carries.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from totaldp.fixtures import fixture, fixture_names
from totaldp.model import Policy
from totaldp.modelio import trace_to_csv, trace_to_json
from totaldp.operators import greedy_select, h_backup
from totaldp.solvers import (
    CustomB,
    FullB,
    OccupationSupportB,
    SolverCapError,
    SolverConfig,
    check_admits,
    round_robin_masks,
    run,
)


def _start(fx):
    """J0 above J* (zero in N, 1.5 J* + 1 elsewhere) and Q0 = H(J0)."""
    model = fx.model
    J0 = (np.zeros(model.num_states) if model.regime == "N"
          else 1.5 * fx.Jstar + 1.0)
    return J0, h_backup(model, J0)


def _configs(fx):
    """Label -> SolverConfig of every pinned run on the fixture."""
    model = fx.model
    n = model.num_states
    J0, Q0 = _start(fx)
    common = dict(J0=J0, Q0=Q0, ground_truth=fx.ground_truth(), max_iter=60)
    half = CustomB((frozenset(range(0, n, 2)), frozenset(), frozenset(range(n))))
    out = {
        "mixed-nk10": SolverConfig(algorithm="mixed", nk=10, **common),
        "mixed-nk1": SolverConfig(algorithm="mixed", nk=1, **common),
        "mixed-exact": SolverConfig(algorithm="mixed", nk="exact", **common),
        "mixed-schedule-eps": SolverConfig(algorithm="mixed", nk=(1, 3, 2),
                                           epsilon=0.5, bstrategy=half, **common),
        "mixed-occupation": SolverConfig(algorithm="mixed", nk=4,
                                         bstrategy=OccupationSupportB(), **common),
        "mixed-clamped": SolverConfig(algorithm="mixed", nk=3,
                                      clamp_hi=J0 + 0.5, clamp_lo=np.full(n, -5.0),
                                      **common),
        "mixed-clamp-binds": SolverConfig(algorithm="mixed", nk=2, epsilon=0.1,
                                          clamp_lo=fx.Jstar + 0.25, **common),
        "mixed-masked": SolverConfig(algorithm="mixed", nk=2,
                                     masks=round_robin_masks(model), **common),
        "mixed-initial-policy": SolverConfig(
            algorithm="mixed", nk=5, initial_policy=Policy.deterministic(model, [0] * n),
            **common),
        "mpi-nk10": SolverConfig(algorithm="mpi", nk=10, J0=J0, max_iter=60,
                                 initial_policy=Policy.deterministic(model, [0] * n),
                                 ground_truth=fx.ground_truth()),
    }
    pi = dict(algorithm="pi", ground_truth=fx.ground_truth(), max_iter=60)
    out["pi-cheapest"] = SolverConfig(
        initial_policy=greedy_select(model, model.pair_costs), **pi)
    out["pi-greedy"] = SolverConfig(initial_policy=greedy_select(model, Q0), **pi)
    if model.regime == "P":
        out["lp"] = SolverConfig(algorithm="lp", bstrategy=FullB(), **common)
        out["lp-partial"] = SolverConfig(algorithm="lp", bstrategy=half, **common)
        out["lp-clamped"] = SolverConfig(algorithm="lp", clamp_hi=J0 - 0.5,
                                         clamp_lo=J0 - 1.0, **common)
        last = Policy.deterministic(model, [len(c) - 1 for c in model.controls])
        if last.descriptor() != greedy_select(model, Q0).descriptor():
            out["lp-initial-policy"] = SolverConfig(algorithm="lp", initial_policy=last,
                                                    **common)
    return out


def _texts(trace):
    rows = [dataclasses.replace(row, wall_time=0.0) for row in trace.rows]
    trace = dataclasses.replace(trace, rows=rows)
    return trace_to_csv(trace), trace_to_json(trace)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _admitted():
    names = []
    for name in fixture_names():
        try:
            check_admits("mixed", fixture(name).model)
        except ValueError:
            continue
        names.append(name)
    return names


def pinned_runs():
    """(fixture, label) of every pinned run."""
    return [(name, label) for name in _admitted() for label in _configs(fixture(name))]


# (csv sha256, json sha256), first 16 hex digits.
PINS = {
    "FX-D/mixed-nk10": ("1d5f603380b2119b", "120ec6886bbabdde"),
    "FX-D/mixed-nk1": ("72db1114e2d99f35", "dc299c54615f2d3a"),
    "FX-D/mixed-exact": ("3a6a27458c00aff1", "ab65de914bcfd98e"),
    "FX-D/mixed-schedule-eps": ("735b4b020af1fce6", "d62e31eabb66758c"),
    "FX-D/mixed-occupation": ("4bb7e65cdc91901e", "128c76a5927b6a93"),
    "FX-D/mixed-clamped": ("beb575095602c1a0", "1f81ccb5825e1c0c"),
    "FX-D/mixed-clamp-binds": ("ebf30d3c67f1525b", "538ab34f25296b17"),
    "FX-D/mixed-masked": ("1f2f29bd1be661ec", "b0915272fa0d33b8"),
    "FX-D/mixed-initial-policy": ("6252badb48f7277b", "9535c03f78b53d9d"),
    "FX-D/mpi-nk10": ("18bb6b7279c1acb1", "72214c306eae9336"),
    "FX-D/pi-cheapest": ("4c3c8a9a2b3176da", "b6458fffeedea6f5"),
    "FX-D/pi-greedy": ("aa179f864c996cd1", "7b50befb8b8f48b6"),
    "FX-N2/mixed-nk10": ("db10f8d0bf6db95c", "4c6c18bbbf931015"),
    "FX-N2/mixed-nk1": ("2058f2f7da105899", "8793f5ce3e3c01a0"),
    "FX-N2/mixed-exact": ("edf384583ec96368", "912395774600cca3"),
    "FX-N2/mixed-schedule-eps": ("c4d1960b5b9f6b62", "d1e843063cabb10f"),
    "FX-N2/mixed-occupation": ("15c6b20f1614308c", "683cc5d370704101"),
    "FX-N2/mixed-clamped": ("680c327ce4b7d3b8", "46813191558657db"),
    "FX-N2/mixed-clamp-binds": ("6f23fcb19942d57f", "3b03ff19598a6e37"),
    "FX-N2/mixed-masked": ("bd0ea208e033a410", "3cafc8a7f2b55577"),
    "FX-N2/mixed-initial-policy": ("d7375bdf81d72558", "b1d7d399774596b5"),
    "FX-N2/mpi-nk10": ("35f99c831fc9b8c3", "e4148c4941a6388d"),
    "FX-N2/pi-cheapest": ("cef09a5eefa8df7a", "021deb56b1d132c1"),
    "FX-N2/pi-greedy": ("cef09a5eefa8df7a", "021deb56b1d132c1"),
    "FX-P2/mixed-nk10": ("0eae97df4f19d8c6", "09ee55072733444d"),
    "FX-P2/mixed-nk1": ("d850939be6cb09f6", "2159ad51ed5a3863"),
    "FX-P2/mixed-exact": ("6f415f2a80b54681", "33d9c025d9b8be11"),
    "FX-P2/mixed-schedule-eps": ("85fefe20a1091096", "3520357a93c61a3a"),
    "FX-P2/mixed-occupation": ("4e5ea3ac88e55654", "0498d28d34852939"),
    "FX-P2/mixed-clamped": ("5a312c0039233a33", "8ba93ca718c6ee95"),
    "FX-P2/mixed-clamp-binds": ("4398523eeb89e6c7", "a0c5d0148f708bea"),
    "FX-P2/mixed-masked": ("d3368eddce99dcb4", "30844e7db665745c"),
    "FX-P2/mixed-initial-policy": ("c286418caddfde5b", "38e2e6fccd7ed2c9"),
    "FX-P2/mpi-nk10": ("35dc1bb91f6a7b61", "f727fb6cad334708"),
    "FX-P2/pi-cheapest": ("e4e6c594f07dddeb", "794d3dba33617d83"),
    "FX-P2/pi-greedy": ("e4e6c594f07dddeb", "794d3dba33617d83"),
    "FX-P2/lp": ("35e224d2c03583ef", "626d4e5e5a737f50"),
    "FX-P2/lp-partial": ("ad71940374f7bbbe", "2553f23ed08c111f"),
    "FX-P2/lp-clamped": ("70f611f11e2fab53", "ee98f35999d6e360"),
    "FX-P2/lp-initial-policy": ("0077a70fdf3dfd63", "2c422302d70bb88e"),
    "FX-P4/mixed-nk10": ("d4cf44b3d1642f68", "f4ef7235a34722f8"),
    "FX-P4/mixed-nk1": ("404217d41d8aa98a", "1b314ee1223b67a4"),
    "FX-P4/mixed-exact": ("7eedde171ae42c2e", "1edf8888dfff13c0"),
    "FX-P4/mixed-schedule-eps": ("5565cb9f7189094a", "53265362eea86594"),
    "FX-P4/mixed-occupation": ("5ab704dc71b2c0f8", "717c733d8c11ef54"),
    "FX-P4/mixed-clamped": ("42aa5caa40122240", "9ecdb4a6b8d1a627"),
    "FX-P4/mixed-clamp-binds": ("481024081f6aea45", "07adb8d4f983c5f4"),
    "FX-P4/mixed-masked": ("7888be87303e3efd", "ac80572517259883"),
    "FX-P4/mixed-initial-policy": ("b1dae33a8ba1e927", "71f64e19899f1565"),
    "FX-P4/mpi-nk10": ("37b25b443ea4c8b8", "e117c4e195479c44"),
    "FX-P4/pi-cheapest": ("74bb5ee58fc1a4d0", "bf4c26cd1556eb51"),
    "FX-P4/pi-greedy": ("74bb5ee58fc1a4d0", "bf4c26cd1556eb51"),
    "FX-P4/lp": ("4702661c77a8fa81", "782d8ca37275479f"),
    "FX-P4/lp-partial": ("d1043919a7ded45a", "aded6dbd1e3fa398"),
    "FX-P4/lp-clamped": ("a1500252d5189352", "d4e61bd382da45b5"),
}


def test_every_run_is_pinned():
    assert set(PINS) == {f"{name}/{label}" for name, label in pinned_runs()}


@pytest.mark.parametrize("name, label", pinned_runs())
def test_trace_text_is_pinned(name, label):
    fx = fixture(name)
    try:
        res = run(fx.model, _configs(fx)[label])
    except SolverCapError as err:  # a capped run's trace is pinned too
        res = err.result
    assert tuple(_digest(t) for t in _texts(res.trace)) == PINS[f"{name}/{label}"]
