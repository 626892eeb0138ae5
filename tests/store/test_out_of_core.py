"""Out-of-core proof: store stats under a hard anonymous-memory cap.

A subprocess opens a packed store, then clamps ``RLIMIT_DATA`` (the
Linux limit on brk + *private anonymous* mappings -- file-backed memory
maps are exempt, which is exactly the loophole :mod:`repro.store`'s
``np.memmap`` chunks live in) to its current usage plus a margin far
smaller than the store.  Under that cap:

* allocating the whole store's worth of anonymous memory fails with
  ``MemoryError`` -- the cap genuinely forbids whole-trace
  materialization;
* the chunked streaming pass (``summarize_store`` with O(1) float
  state) still completes and produces bit-identical statistics to the
  batch kernels run on the in-memory trace in the parent.

``RLIMIT_RSS`` is not used because Linux has ignored it for decades;
``RLIMIT_DATA`` (honoured for anonymous mappings since Linux 4.7) is
the enforceable equivalent.
"""

import dataclasses
import json
import os
import resource
import subprocess
import sys

import pytest

from repro.analysis import (
    interarrival_distribution,
    response_distribution,
    size_distribution,
    size_stats,
    timing_stats,
)
from repro.store import TRACE_SCHEMA, pack
from repro.workloads import generate_trace

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(resource, "RLIMIT_DATA"),
    reason="RLIMIT_DATA enforcement on anonymous mappings is Linux-specific",
)

#: Rows in the scaled trace.  At 42 bytes/row this is a ~50 MiB store.
SCALED_ROWS = 1_200_000
#: Anonymous headroom granted beyond the subprocess's usage at clamp
#: time.  Far below the store's byte size, comfortably above the
#: streaming pass's transient chunk buffers (a few MiB each).
MARGIN_BYTES = 32 * 1024 * 1024

_SCRIPT = r"""
import json, resource, sys
import numpy as np
from repro.store import open_store
from repro.streaming import summarize_store

store = open_store(sys.argv[1])
total_nbytes = int(sys.argv[2])

with open("/proc/self/status") as status:
    vmdata_kb = next(
        int(line.split()[1]) for line in status if line.startswith("VmData:")
    )
cap = vmdata_kb * 1024 + int(sys.argv[3])
resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))

try:  # the cap must forbid materializing the store anonymously...
    block = np.ones(total_nbytes, dtype=np.uint8)
    probe = "allocated"
except MemoryError:
    probe = "memoryerror"

summary = summarize_store(store)  # ...while the chunked pass sails through
import dataclasses
print(json.dumps({
    "probe": probe,
    "rows": summary.size.num_requests,
    "size": dataclasses.asdict(summary.size),
    "timing": dataclasses.asdict(summary.timing),
    "size_distribution": summary.size_distribution,
    "response_distribution": summary.response_distribution,
    "interarrival_distribution": summary.interarrival_distribution,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


@pytest.fixture(scope="module")
def capped_run(tmp_path_factory):
    """Pack the scaled trace, run the capped subprocess, return both sides."""
    trace = generate_trace("Email", seed=29, num_requests=SCALED_ROWS)
    path = tmp_path_factory.mktemp("ooc") / "email.store"
    pack(trace, path)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _SCRIPT,
            str(path),
            str(SCALED_ROWS * TRACE_SCHEMA.row_nbytes),
            str(MARGIN_BYTES),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return trace, json.loads(proc.stdout)


class TestOutOfCore:
    def test_cap_forbids_whole_store_materialization(self, capped_run):
        _, result = capped_run
        assert result["probe"] == "memoryerror"

    def test_streaming_stats_survive_the_cap_bit_identical(self, capped_run):
        trace, result = capped_run
        assert result["rows"] == SCALED_ROWS
        # json round-trips Python floats exactly (repr <-> strtod), so
        # == here is still a bit-identity assertion.
        assert result["size"] == dataclasses.asdict(size_stats(trace))
        assert result["timing"] == dataclasses.asdict(timing_stats(trace))
        assert result["size_distribution"] == size_distribution(trace)
        assert result["response_distribution"] == response_distribution(trace)
        assert result["interarrival_distribution"] == interarrival_distribution(trace)

    def test_store_dwarfs_the_anonymous_margin(self, capped_run):
        # Guard against the scenario silently degenerating: the probe is
        # only meaningful while the store is much larger than the margin.
        assert SCALED_ROWS * TRACE_SCHEMA.row_nbytes > 1.5 * MARGIN_BYTES
