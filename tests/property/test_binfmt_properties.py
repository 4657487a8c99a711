"""Property: the binary format round-trips any well-formed artifact.

For a randomly shaped model, ``save_binary`` followed by a lazy open and
a full JSON export must reproduce byte-for-byte the export of the
artifact it wrote — the lazy fast path may defer I/O but never change
what it reads (DESIGN.md §6 extended to the on-disk format).
"""

from hypothesis import given, settings, strategies as st

from repro.core.binfmt import save_binary
from repro.core.chunks import open_binary
from repro.core.offline import OfflinePhase
from repro.simgpu.process import ExecutionMode

from tests.property.test_end_to_end_properties import (
    _cost_model,
    model_configs,
)


class TestBinaryRoundTripProperty:
    @settings(max_examples=5, deadline=None)
    @given(config=model_configs(), seed=st.integers(0, 10**6))
    def test_lazy_materialization_matches_eager_load(self, config, seed,
                                                     tmp_path_factory):
        artifact, _report = OfflinePhase(
            config, seed=seed, mode=ExecutionMode.COMPUTE,
            cost_model=_cost_model()).run()
        path = tmp_path_factory.mktemp("binfmt") / f"{config.name}.medusa"
        save_binary(artifact, path)

        written = artifact.to_payload()
        lazy = open_binary(path)
        # The lazy view's metadata mirrors the written artifact...
        assert lazy.model_name == written["model_name"]
        assert {b: lazy.graph_nodes(b) for b in lazy.batches} == {
            int(b): len(g["nodes"]) for b, g in written["graphs"].items()}
        assert lazy.batches == sorted(int(b) for b in written["graphs"])
        # ...and its full export is byte-identical to the original's.
        assert lazy.to_json() == artifact.to_json()
