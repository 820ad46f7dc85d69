"""Self-test of the benchmark harness: attribute restoration and self time.

Run with either of

    python3 perfbench/test_harness.py
    python3 -m pytest -q perfbench/test_harness.py
"""
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from spans import Patch, Span, Tracer  # noqa: E402


class Boom(Exception):
    pass


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def _module():
    mod = types.SimpleNamespace()
    mod.f = lambda x: x + 1
    mod.g = lambda x: mod.f(x) * 2  # looks f up at call time, like ffgas
    mod.table = (("a", lambda: "A"), ("b", lambda: "B"))
    return mod


def test_wrappers_record_and_originals_come_back_after_a_raise():
    mod = _module()
    before = dict(vars(mod))
    tracer = Tracer()
    patches = [Patch(mod, "f", "m.f", lambda a, k, r: {"f_args": a[0]}),
               Patch(mod, "g", "m.g"),
               Patch(mod, "table", "m.check", items=True)]
    try:
        with tracer.installed(patches):
            assert mod.f is not before["f"]
            assert mod.g(3) == 8
            assert [fn() for _, fn in mod.table] == ["A", "B"]
            raise Boom
    except Boom:
        pass
    for name, value in before.items():
        assert getattr(mod, name) is value, name
    assert [s.name for s in tracer.spans] == ["m.g", "m.f", "m.check.a",
                                              "m.check.b"]
    assert tracer.spans[1].parent == 0
    assert tracer.counts["f_args"] == 3


def test_failed_install_restores_what_it_patched():
    mod = _module()
    f = mod.f
    tracer = Tracer()
    try:
        with tracer.installed([Patch(mod, "f", "m.f"),
                               Patch(mod, "missing", "m.missing")]):
            raise AssertionError("block must not run")
    except AttributeError:
        pass
    assert mod.f is f


def test_duplicate_site_is_rejected_before_patching():
    mod = _module()
    f = mod.f
    try:
        with Tracer().installed([Patch(mod, "f", "a"), Patch(mod, "f", "b")]):
            raise AssertionError("block must not run")
    except ValueError:
        pass
    assert mod.f is f


def test_every_ffgas_patch_is_restored_after_a_raise():
    import layers
    patches = layers.patches()
    before = [getattr(p.owner, p.attr) for p in patches]
    try:
        with Tracer().installed(patches):
            assert all(getattr(p.owner, p.attr) is not b
                       for p, b in zip(patches, before))
            raise Boom
    except Boom:
        pass
    assert all(getattr(p.owner, p.attr) is b
               for p, b in zip(patches, before))


def test_traced_calls_through_ffgas_lookup_sites():
    import numpy as np

    import layers
    from ffgas import Grid, Trajectory, hard_wall, tdse
    from ffgas.fastforward import ff_wavefunction
    conf, traj = hard_wall(), Trajectory(1.0, 1.0, 1.0)
    g = Grid.box(traj.L_final, 64)
    psi0 = ff_wavefunction(conf, traj, 1, 0.0, g).psi
    tracer = Tracer()
    with tracer.installed(layers.patches()):
        tdse.propagate(conf, traj, psi0, 0.0, 0.01,
                       tdse.PropagatorConfig(dt=1e-3, grid=g), track_n=1)
    m = layers.round_metrics(spans.summarize(tracer.spans), tracer.counts)
    assert m["tdse.propagate_calls"] == 1
    assert m["kernels.cn_point_steps"] == 64 * 10
    assert m["tdse.populations_calls"] == 1
    assert m["spectra.eigenfunction_calls"] == 2 * 1 + 10 + 1
    assert np.isfinite(m["kernels.cn_ns_per_point_step"])


def test_covered_merges_and_clips():
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert spans.covered([(-1, 2), (9, 12)], 0.0, 10.0) == 3.0
    assert spans.covered([(4, 4)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert [(s.name, s.start, s.end) for s in tracer.spans] == [
        ("outer", 0, 10), ("a", 1, 3), ("b", 4, 8), ("c", 5, 6)]
    assert spans.self_times(tracer.spans) == [4, 2, 3, 1]


def test_summarize_counts_a_recursive_name_once_inclusively():
    s = [Span("r", 0, 10, None), Span("r", 2, 6, 0), Span("x", 7, 9, 0)]
    out = spans.summarize(s)
    assert out["r"] == {"self_s": 4 + 4, "incl_s": 10, "calls": 2}
    assert out["x"] == {"self_s": 2, "incl_s": 2, "calls": 1}


def test_span_closes_when_the_body_raises():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 5]))
    try:
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise Boom
    except Boom:
        pass
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 5), (1, 2)]
    assert spans.self_times(tracer.spans) == [4, 1]


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} harness tests passed")
