import types

import pytest

import workloads
from spans import Span, Tracer, resolve, self_times, union_length


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(2.0, 5.0), (0.0, 3.0), (4.0, 4.5)]) == 5.0


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        # overlaps "a": the covered part of root is 1..6, counted once
        Span("b", 3.0, 6.0, 0),
        # runs past its parent's end: only 5..6 lies inside "b"
        Span("b.leaf", 5.0, 8.0, 3),
        Span("other_root", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 3.0, 1.0])


def test_tracer_records_nesting_and_inherits_keys():
    calls = []

    def leaf(x):
        calls.append(x)
        return x

    module = types.SimpleNamespace(leaf=leaf)

    def outer(scenario_id, index):
        return module.leaf(index) + module.leaf(index)

    module.outer = outer
    with Tracer() as tracer:
        tracer.wrap(module, "outer", "outer", key_fn=lambda sid, i: (sid, i))
        tracer.wrap(module, "leaf", "leaf")
        assert module.outer("s", 3) == 6
        module.leaf(1)
    spans = tracer.spans()
    assert [s.name for s in spans] == ["outer", "leaf", "leaf", "leaf"]
    assert [s.parent for s in spans] == [-1, 0, 0, -1]
    assert [s.key for s in spans] == [("s", 3), ("s", 3), ("s", 3), None]
    assert all(s.end >= s.start for s in spans)
    assert module.outer is outer and module.leaf is leaf


class _Cell:
    def value(self):
        return 7


def test_tracer_wraps_methods_and_restores_on_error():
    original = _Cell.__dict__["value"]
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.wrap(_Cell, "value", "cell.value")
            assert _Cell().value() == 7
            1 / 0
    assert _Cell.__dict__["value"] is original
    assert len(tracer) == 1


def test_missing_site_resolves_to_none():
    assert resolve("nccsim.harness", "no_such_function") is None
    assert resolve("nccsim.datagen", "NoSuchClass.method") is None
    assert resolve("nccsim.no_such_module", "x") is None


def test_traced_run_restores_every_nccsim_site():
    before = {}
    for _, module, attr in workloads.SITES:
        owner, name = resolve(module, attr)
        before[(module, attr)] = (owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name))
    workload = workloads.SerialWorkload(
        "tiny", designs=("alpha1=0.5",), replicates=3, bootstrap_b=5, trace_cycles=1
    )
    cycles, tracer, missing = workloads.traced_cycles(workload, workload.setup(None), 1)
    assert missing == []
    assert len(tracer) > 0
    for (module, attr), (owner, name, original) in before.items():
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, f"{module}.{attr} not restored"
    names = {s.name for s in tracer.spans()}
    assert {"harness.run_replicate", "datagen.simulate_trial", "normal.quantile"} <= names
    assert len(cycles) == 1 and cycles[0].replicates == 6
