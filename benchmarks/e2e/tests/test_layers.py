import cProfile
import heapq
import json
import os

import pytest

from benchmarks.e2e.layers import LAYERS, fold_profile, layer_of, shares

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
))))


def test_every_repro_file_has_a_repository_layer():
    unmapped = []
    for folder, _, files in os.walk(os.path.join(ROOT, "src", "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                if layer_of(path).startswith("py.") or layer_of(path) == "bench":
                    unmapped.append(path)
    assert unmapped == []


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/core.py", "sim"),
    ("/x/src/repro/core/control/admission.py", "core.control"),
    ("/x/src/repro/core/allocation.py", "core"),
    ("/x/src/repro/monitoring/profiler.py", "monitoring"),
    ("/x/src/repro/runtime/codec.py", "runtime.codec"),
    ("/x/src/repro/runtime/transport.py", "runtime.transport"),
    ("/x/src/repro/runtime/node.py", "runtime.node"),
    ("/x/src/repro/runtime/bootstrap.py", "runtime.cluster"),
    ("/x/src/repro/profiling/sampler.py", "telemetry"),
    ("/x/src/repro/__init__.py", "core"),
    ("/usr/lib/python3.11/asyncio/base_events.py", "py.asyncio"),
    ("/usr/lib/python3.11/selectors.py", "py.asyncio"),
    ("/usr/lib/python3.11/json/encoder.py", "py.json"),
    ("/usr/lib/python3.11/site-packages/numpy/core/x.py", "py.other"),
    ("/checkout/benchmarks/e2e/live.py", "bench"),
    ("~", "py.other"),
])
def test_layer_of(path, layer):
    assert layer_of(path) == layer
    assert layer in LAYERS


def test_fold_charges_builtins_to_their_caller_and_shares_sum_to_one():
    def busy():
        heap = []
        for i in range(20000):
            heapq.heappush(heap, -i)
        return json.dumps(list(range(2000)))

    profile = cProfile.Profile()
    profile.enable()
    busy()
    profile.disable()
    totals = fold_profile(profile.getstats())
    assert set(totals) == set(LAYERS)
    # This file lives under benchmarks/e2e/: heappush, called from
    # here, is charged here and not to a generic builtin bucket.
    assert totals["bench"]["calls"] >= 20000
    assert totals["py.json"]["self_s"] > 0
    part = shares(totals)
    assert sum(part.values()) == pytest.approx(1.0)
    assert part["bench"] > part["py.other"]


def test_idle_selector_wait_is_left_out():
    class Sub:
        def __init__(self, code, inlinetime, callcount=1):
            self.code, self.inlinetime, self.callcount = code, inlinetime, callcount

    class Entry(Sub):
        def __init__(self, code, inlinetime, calls):
            super().__init__(code, inlinetime)
            self.calls = calls

    select_code = compile("pass", "/usr/lib/python3.11/selectors.py", "exec")
    entries = [
        Entry(select_code, 1.0, [
            Sub("<method 'poll' of 'select.epoll' objects>", 50.0),
            Sub("<built-in method builtins.max>", 0.5),
        ]),
        Entry("<method 'poll' of 'select.epoll' objects>", 50.0, None),
    ]
    totals = fold_profile(entries)
    assert totals["py.asyncio"]["self_s"] == pytest.approx(1.5)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(1.5)
