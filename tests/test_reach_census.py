"""The reachability census (``tools/reach_census.py``): its recorder, and
the committed ``tools/reach_census.tsv`` it writes.

The recorder must see a call wherever a rank runs it: in a rank thread
(``threading.settrace``) and in a forked rank, which leaves through
``os._exit`` and so never reaches ``atexit``.
"""

from __future__ import annotations

import csv
import importlib.util
import os
import sys
import textwrap

import pytest

from repro.runtime.proc import ProcessWorld
from repro.runtime.shm import fork_available
from repro.runtime.thread_rt import ThreadWorld

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _census():
    if "reach_census" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "reach_census", os.path.join(TOOLS, "reach_census.py")
        )
        module = sys.modules["reach_census"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["reach_census"]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_recorder_sees_forked_and_threaded_ranks_and_nothing_else(tmp_path):
    census = _census()
    probe = tmp_path / "census_probe.py"
    probe.write_text(
        textwrap.dedent(
            """\
            def in_forked_rank():
                return 1


            def in_rank_thread():
                return 2


            def never():
                return 3
            """
        )
    )
    sys.path.insert(0, str(tmp_path))
    try:
        import census_probe

        dumps = str(tmp_path / "dumps")
        recorder = census.Recorder(dumps, prefix=str(tmp_path)).install()
        try:
            ProcessWorld(2, timeout=20.0).run(lambda comm: census_probe.in_forked_rank())
            # Rank 1 only: rank 0 of a thread world may run on the caller's
            # thread, which sys.settrace alone would cover.
            ThreadWorld(2, timeout=20.0).run(
                lambda comm: census_probe.in_rank_thread() if comm.rank == 1 else 0
            )
        finally:
            recorder.uninstall()
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("census_probe", None)

    reached = census.load_dumps(dumps)
    path = os.path.abspath(str(probe))
    assert (path, 1) in reached, "a call made only in a forked rank was missed"
    assert (path, 5) in reached, "a call made only in a rank thread was missed"
    assert (path, 9) not in reached, "a function nobody called was reported reached"


def test_committed_census_is_closed():
    """Every row of the committed TSV carries a ``keep:`` reason from the
    fixed set: no unreached function is left undecided."""
    census = _census()
    with open(census.TSV, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert rows, "the census lists no unreached function"
    allowed = {f"keep: {reason}" for reason in census.REASONS}
    for row in rows:
        where = f"{row['file']}::{row['qualname']}"
        assert row["disposition"] in allowed, f"{where}: {row['disposition']}"
