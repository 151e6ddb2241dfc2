"""Property: fast-forward never skips work (hypothesis).

The eligibility rule in :func:`repro.rack.cluster.run_rack` — jump only
to ``min(idle horizons)``'s epoch, clamp to an armed kill window, and
demote whenever wires are in flight, backlogs are pending, or
directives are queued — must hold for *every* configuration, not just
the handcrafted ones in test_hotpath_identity.  Hypothesis draws small
rack configs (kill plans included, remote traffic forced so NACK
bounces actually occur after a kill) and asserts the fast-forwarded
trajectory equals per-epoch stepping exactly.  Any skip past a pending
arrival, an in-flight bounce, or the kill instant would change
``served``/``nacked``/``p99`` and fail the comparison.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rack import RackConfig, run_rack
from tests.rack.test_hotpath_identity import run_stepped


def _cfg(users, seed, utilization, remote_frac, kill_frac):
    kill = None if kill_frac is None else (1, kill_frac)
    return RackConfig(hosts=2, users=users, buckets=32,
                      servers_per_host=1, seed=seed,
                      target_utilization=utilization,
                      remote_frac=remote_frac, kill=kill)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    users=st.integers(min_value=32, max_value=160),
    seed=st.integers(min_value=0, max_value=2**16),
    utilization=st.sampled_from([0.0005, 0.002, 0.01]),
    remote_frac=st.sampled_from([0.0, 0.2, 0.5]),
    kill_frac=st.sampled_from([None, 0.3, 0.7, 2.0]),
)
def test_fastforward_never_skips_pending_work(users, seed, utilization,
                                              remote_frac, kill_frac):
    cfg = _cfg(users, seed, utilization, remote_frac, kill_frac)
    ff = run_rack(cfg, jobs=1)
    stepped = run_stepped(cfg)
    assert ff.stats() == stepped.stats()
    assert ff.killed == stepped.killed
    # Accounting invariant: every epoch of the run was either stepped
    # or skipped, never both, never neither.
    fs = ff.fabric_stats
    assert fs["epochs_run"] + fs["epochs_skipped"] == ff.epochs
    assert stepped.fabric_stats["epochs_skipped"] == 0
