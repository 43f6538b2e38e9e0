"""E03 — K-maintainable policy construction (paper §4.3, Baral–Eiter).

Claims: (a) the polynomial-time construction agrees with brute-force
policy search; (b) it scales to spacecraft transition systems far beyond
naive enumeration.  We regenerate both: an agreement table on random
systems and a maintainability series over spacecraft of growing size.

Engine-aware: part (b) goes through :meth:`Spacecraft.maintainability`,
which honours ``REPRO_CSP_ENGINE`` — the object column materializes the
full transition system, the bit column runs the add-bit BFS on the
compiled fit set.  Both must produce a maintainable k=2 policy whose
level table covers the debris envelope.
"""

from __future__ import annotations

from conftest import run_once, scaled

from repro.analysis.tables import render_table
from repro.planning.kmaintain import construct_policy
from repro.planning.verify import brute_force_maintainable, verify_policy
from repro.rng import make_rng
from repro.spacecraft.system import Spacecraft

ORACLE_TRIALS = scaled(40, 8)
COMPONENTS = scaled((6, 10, 14), (4, 6))


def random_system(rng, n_states=4):
    from repro.planning.transition import TransitionSystem

    ts = TransitionSystem(states=frozenset(range(n_states)))
    for a in range(2):
        for s in range(n_states):
            if rng.random() < 0.7:
                outs = rng.choice(n_states, size=1 + int(rng.integers(2)),
                                  replace=False)
                ts.add_agent_action(f"a{a}", s, [int(o) for o in outs])
    for s in range(n_states):
        if rng.random() < 0.4:
            outs = rng.choice(n_states, size=1 + int(rng.integers(2)),
                              replace=False)
            ts.add_exo_action("e", s, [int(o) for o in outs])
    return ts


def run_experiment():
    # (a) agreement with the exponential oracle
    rng = make_rng(123)
    agreement = 0
    for _ in range(ORACLE_TRIALS):
        ts = random_system(rng)
        for k in (1, 2):
            fast = construct_policy(ts, [0], [0], k)
            slow = brute_force_maintainable(ts, [0], [0], k)
            if fast.maintainable == slow:
                if not fast.maintainable or verify_policy(ts, fast.policy, [0]):
                    agreement += 1
    # (b) spacecraft maintainability at growing size (engine-dispatched)
    scaling = []
    for n in COMPONENTS:
        craft = Spacecraft(n)
        result = craft.maintainability(max_debris_hits=2, k=2)
        scaling.append({
            "n_components": n,
            "n_states": 2**n,
            "maintainable_k2": result.maintainable,
            "envelope_states": len(result.envelope),
            "policy_states": len(result.policy.actions),
        })
    return agreement, 2 * ORACLE_TRIALS, scaling


def test_e03_kmaintainability(benchmark):
    agreement, total, scaling = run_once(benchmark, run_experiment)
    print(f"\nE03: polynomial construction vs brute force: "
          f"{agreement}/{total} agree")
    print(render_table(scaling))
    assert agreement == total
    for row in scaling:
        assert row["maintainable_k2"]
        # envelope = fit state plus every ≤2-hit damage outcome;
        # the policy must cover exactly the damaged ones
        n = row["n_components"]
        assert row["envelope_states"] == 1 + n + n * (n - 1) // 2
        assert row["policy_states"] >= row["envelope_states"] - 1
