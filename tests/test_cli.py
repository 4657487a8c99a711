"""CLI tests (driving tiny models through the public command surface)."""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.cli import build_parser, main
from repro.core.chunks import open_binary


@pytest.fixture(scope="module")
def tiny_binary_path(tmp_path_factory):
    """A materialized Tiny-2L binary artifact (any path but ``.json``)."""
    path = str(tmp_path_factory.mktemp("cli") / "tiny.medusa")
    assert main(["offline", "--model", "Tiny-2L", "--output", path]) == 0
    return path


#: What an artifact command prints for a file without the binary magic.
_EXPORT_ONLY = "JSON is export-only"


def _with_metadata(source, out, **fields) -> str:
    """The binary file ``source`` copied to ``out`` with manifest metadata
    ``fields`` replaced."""
    from tests.conftest import rewrite_binary
    return str(rewrite_binary(source, out,
                              metadata=lambda meta: meta.update(fields)))


class TestParser:
    def test_models_command(self):
        args = build_parser().parse_args(["models"])
        assert args.command == "models"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["coldstart", "--model", "X", "--strategy", "warp-drive"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSharedParser:
    """``main`` parses with one parser per process."""

    def test_main_leaves_no_cyclic_garbage(self, capsys):
        import gc
        assert main(["models"]) == 0      # warm-up: builds the parser
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(["models"]) == 0
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_parses_like_a_fresh_parser_after_other_calls(self, capsys):
        from repro.cli import _parser
        argv = ["simulate", "--model", "Tiny-2L", "--rps", "1",
                "--strategy", "medusa"]
        assert main(["models"]) == 0
        with pytest.raises(SystemExit):
            main(["coldstart", "--model", "X", "--strategy", "warp-drive"])
        assert _parser().parse_args(argv) == build_parser().parse_args(argv)
        assert _parser().parse_args(["models"]) == \
            build_parser().parse_args(["models"])


class TestCommands:
    def test_models_lists_ten(self, capsys):
        assert main(["models"]) == 0
        output = capsys.readouterr().out
        assert "Qwen1.5-4B" in output
        assert "16150" in output   # Table 1 node count

    def test_coldstart_tiny(self, capsys):
        assert main(["coldstart", "--model", "Tiny-2L",
                     "--strategy", "vllm"]) == 0
        output = capsys.readouterr().out
        assert "capture" in output
        assert "loading phase" in output

    def test_coldstart_medusa_requires_artifact(self, capsys):
        assert main(["coldstart", "--model", "Tiny-2L",
                     "--strategy", "medusa"]) == 2
        assert "requires --artifact" in capsys.readouterr().err

    def test_offline_restore_roundtrip(self, tmp_path, capsys):
        artifact_path = str(tmp_path / "tiny.medusa")
        assert main(["offline", "--model", "Tiny-2L",
                     "--output", artifact_path]) == 0
        assert "materialized" in capsys.readouterr().out
        assert main(["restore", "--model", "Tiny-2L",
                     "--artifact", artifact_path]) == 0
        output = capsys.readouterr().out
        assert "medusa_warmup" in output
        assert "plan: medusa-pipelined" in output

    def test_restore_with_validation(self, tmp_path, capsys):
        artifact_path = str(tmp_path / "tiny.medusa")
        main(["offline", "--model", "Tiny-2L", "--output", artifact_path])
        capsys.readouterr()
        assert main(["restore", "--model", "Tiny-2L",
                     "--artifact", artifact_path, "--validate"]) == 0
        assert "validation: PASSED" in capsys.readouterr().out

    def test_restore_with_validation_lints_and_restores_once(
            self, tmp_path, monkeypatch, capsys):
        """``offline`` lints its output once; ``restore --validate`` lints
        once more and runs one cold start, whose report it prints."""
        from repro import analysis
        from repro.engine.engine import LLMEngine
        calls = {"lint": 0, "cold_start": 0}
        lint, cold_start = analysis.lint_artifact, LLMEngine.cold_start

        def counted_lint(*args, **kwargs):
            calls["lint"] += 1
            return lint(*args, **kwargs)

        def counted_cold_start(*args, **kwargs):
            calls["cold_start"] += 1
            return cold_start(*args, **kwargs)

        monkeypatch.setattr(analysis, "lint_artifact", counted_lint)
        monkeypatch.setattr(LLMEngine, "cold_start", counted_cold_start)
        artifact_path = str(tmp_path / "tiny.medusa")
        assert main(["offline", "--model", "Tiny-2L",
                     "--output", artifact_path]) == 0
        calls["cold_start"] = 0
        assert main(["restore", "--model", "Tiny-2L",
                     "--artifact", artifact_path, "--validate"]) == 0
        assert calls == {"lint": 2, "cold_start": 1}
        output = capsys.readouterr().out
        assert "plan: medusa-pipelined" in output
        assert "validation: PASSED" in output

    @pytest.mark.parametrize("name", ["a.json", "a.npz", "a.medusa", "a"])
    def test_output_form_follows_the_json_suffix(self, tmp_path, name,
                                                 capsys):
        """``offline`` writes a JSON export for a ``.json`` path and the
        binary file for any other; every command reads a file by its
        content, so a binary file under a ``.json`` name is still read as
        binary, and the export is no input."""
        from repro.core.chunks import FILE_MAGIC
        path = tmp_path / name
        assert main(["offline", "--model", "Tiny-2L", "--output",
                     str(path)]) == 0
        binary = path.read_bytes().startswith(FILE_MAGIC)
        assert binary == (path.suffix != ".json")
        if binary:
            path = path.rename(tmp_path / "renamed.json")
        capsys.readouterr()
        code = 0 if binary else 2
        assert main(["lint", str(path)]) == code
        assert main(["restore", "--model", "Tiny-2L", "--artifact",
                     str(path)]) == code
        captured = capsys.readouterr()
        if binary:
            assert "plan: medusa-pipelined" in captured.out
        else:
            assert captured.out == ""
            assert captured.err.count(_EXPORT_ONLY) == 2

    def test_simulate_tiny_run(self, capsys):
        assert main(["simulate", "--model", "Llama2-7B", "--rps", "1",
                     "--duration", "20", "--gpus", "1",
                     "--strategy", "no-cuda-graph"]) == 0
        output = capsys.readouterr().out
        assert "ttft_p99" in output


class TestSimulateBadFlags:
    """A bad ``simulate`` flag exits 2 before any offline work or cold
    start; a NaN or infinite rate or duration would otherwise never
    finish generating arrivals."""

    @pytest.fixture(autouse=True)
    def _refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate started work before its checks")

        monkeypatch.setattr(cli, "run_offline", refuse)
        monkeypatch.setattr(cli, "cold_start_for", refuse)

    @pytest.mark.parametrize("flags", [
        ["--gpus", "0"], ["--rps", "-1"], ["--duration", "0"],
        ["--rps", "nan"], ["--rps", "inf"], ["--duration", "nan"],
        ["--duration", "inf"], ["--slo-ttft", "nan"], ["--slo-ttft", "-1"],
        ["--trace", "/nonexistent/x.json"],
        # Just past the ceilings: 4,096 GPUs, 1,000,000 expected arrivals.
        ["--gpus", "4097"], ["--rps", "1000", "--duration", "1000.001"]])
    def test_exits_two_with_an_error(self, flags, capsys):
        assert main(["simulate", "--model", "Tiny-2L", "--strategy",
                     "medusa", "--gpus", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_trace_path_that_is_a_directory(self, tmp_path, capsys):
        assert main(["simulate", "--model", "Tiny-2L", "--strategy",
                     "medusa", "--trace", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestOfflineBadFlags:
    """A bad ``offline`` flag exits 2 before any offline work."""

    @pytest.fixture(autouse=True)
    def _refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("offline started work before its checks")

        monkeypatch.setattr(cli, "run_offline", refuse)

    @pytest.mark.parametrize("flags", [
        ["--model", "Tiny-2L", "--output", "/nonexistent/x.npz"],
        ["--model", "Tiny-2L", "--output", "/nonexistent/x.json"],
        ["--model", "Tiny-2L", "--output", "."]])
    def test_exits_two_with_an_error(self, flags, capsys):
        assert main(["offline", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestUnknownModel:
    """Every ``--model`` names a zoo model, refused by the parser before
    the command runs."""

    @pytest.fixture(autouse=True)
    def _refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran despite a bad --model")

        monkeypatch.setattr(cli, "run_offline", refuse)

    @pytest.mark.parametrize("argv", [
        ["coldstart", "--strategy", "vllm"],
        ["offline", "--output", "x.medusa"],
        ["validate", "--artifact", "x.medusa"],
        ["restore", "--artifact", "x.medusa"],
        ["simulate"],
    ], ids=["coldstart", "offline", "validate", "restore", "simulate"])
    def test_exits_two_with_an_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--model", "Nope"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert "argument --model: unknown model 'Nope'" in lines[-1]


class TestNegativeSeed:
    """Every ``--seed`` is a non-negative integer, refused by the parser
    before the command runs (``seed + 1`` seeds the inputs)."""

    @pytest.fixture(autouse=True)
    def _refuse_work(self, monkeypatch):
        def refuse(args):
            raise AssertionError("the command ran despite a bad --seed")

        for command in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, command, refuse)

    @pytest.mark.parametrize("seed", ["-5", "-1", "x"])
    @pytest.mark.parametrize("argv", [
        ["coldstart", "--model", "Tiny-2L"],
        ["offline", "--model", "Tiny-2L", "--output", "x.npz"],
        ["validate", "--artifact", "x.npz"],
        ["restore", "--model", "Tiny-2L", "--artifact", "x.npz"],
        ["simulate", "--model", "Tiny-2L"],
    ], ids=["coldstart", "offline", "validate", "restore", "simulate"])
    def test_exits_two_with_an_error(self, argv, seed, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", seed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed: expected a non-negative integer" \
            in err
        assert "Traceback" not in err


class TestBatchSizes:
    """A graph's batch size is positive (the loader refuses others), at
    most the model's largest capture batch size, and every one of its
    nodes' (lint MED025)."""

    @staticmethod
    def _mutant(source, path, rebatch=None, batch_dim=None) -> str:
        """``source`` with graph 1 re-keyed to ``rebatch`` or its nodes'
        batch dims set to ``batch_dim``."""
        from tests.conftest import resaved

        def mutate(members, meta):
            if rebatch is None:
                members["g1_batchdim"][:] = batch_dim
                return
            for name in [name for name in members if name.startswith("g1_")]:
                members[f"g{rebatch}_{name[3:]}"] = members.pop(name)
            meta["batches"] = sorted(rebatch if batch == 1 else batch
                                     for batch in meta["batches"])
            meta["graph_meta"] = {str(rebatch) if key == "1" else key: row
                                  for key, row in meta["graph_meta"].items()}
        return resaved(source, path.with_suffix(".medusa"), mutate)

    @pytest.mark.parametrize("batch", [-3, 0])
    @pytest.mark.parametrize("argv", [
        ["lint"],
        ["validate", "--artifact"],
        ["coldstart", "--model", "Tiny-2L", "--strategy", "medusa",
         "--artifact"],
    ], ids=["lint", "validate", "coldstart"])
    def test_non_positive_batch_exits_two(self, tiny_binary_path, tmp_path,
                                          batch, argv, capsys):
        path = self._mutant(tiny_binary_path, tmp_path / "bad", rebatch=batch)
        assert main(argv + [path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"must be a positive batch size, not {batch}" in err

    @pytest.mark.parametrize("mutation", [
        {"rebatch": 2 ** 30}, {"batch_dim": 2 ** 30}],
        ids=["batch-past-the-model", "node-batch-dim"])
    def test_untrusted_batch_fails_lint_and_validate(
            self, tiny_binary_path, tmp_path, mutation, capsys):
        path = self._mutant(tiny_binary_path, tmp_path / "bad", **mutation)
        assert main(["lint", path]) == 1
        assert "MED025" in capsys.readouterr().out
        assert main(["validate", "--artifact", path]) == 1
        assert "(MED025); refusing to restore" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation", [
        {"rebatch": 2 ** 30}, {"batch_dim": 2 ** 30}],
        ids=["batch-past-the-model", "node-batch-dim"])
    @pytest.mark.parametrize("argv", [
        ["coldstart", "--model", "Tiny-2L", "--strategy", "medusa",
         "--artifact"],
        ["restore", "--model", "Tiny-2L", "--artifact"],
    ], ids=["coldstart", "restore"])
    def test_untrusted_batch_is_refused_before_the_restore(
            self, tiny_binary_path, tmp_path, mutation, argv, capsys):
        """``coldstart --strategy medusa`` and ``restore`` lint first, as
        ``validate`` does: the artifact never reaches the restore."""
        path = self._mutant(tiny_binary_path, tmp_path / "bad", **mutation)
        assert main(argv + [path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Tiny-2L: static verification")
        assert "(MED025); refusing to restore" in captured.err
        assert captured.out == ""


class TestLintCommand:
    def test_clean_artifact_exits_zero(self, tiny_binary_path, capsys):
        assert main(["lint", tiny_binary_path]) == 0
        output = capsys.readouterr().out
        assert "artifact is clean" in output
        assert "0 error(s)" in output

    def test_json_output(self, tiny_binary_path, capsys):
        assert main(["lint", tiny_binary_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["diagnostics"] == []
        assert "liveness" in payload["passes"]

    def test_diagnostics_exit_one(self, tiny_binary_path, tmp_path, capsys):
        bad = _with_metadata(tiny_binary_path, tmp_path / "bad.medusa",
                             capture_marker=-5)
        assert main(["lint", bad]) == 1
        assert "MED044" in capsys.readouterr().out

    def test_diagnostics_exit_one_as_json(self, tiny_binary_path,
                                          tmp_path, capsys):
        import numpy as np

        from tests.conftest import resaved

        def free_unknown_index(members, meta):
            row = {"ev_kind": 1, "ev_alloc_index": 999999}
            for name, column in members.items():
                if name.startswith("ev_"):
                    members[name] = np.append(column, np.array(
                        [row.get(name, 0)], dtype=column.dtype))
        bad = resaved(tiny_binary_path, tmp_path / "bad.medusa",
                      free_unknown_index)
        assert main(["lint", bad, "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert report["diagnostics"][0]["code"] == "MED002"

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.medusa")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_payload_exits_two(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["lint", str(garbage)]) == 2
        assert _EXPORT_ONLY in capsys.readouterr().err

    def test_stale_version_exits_two_naming_both_versions(
            self, tiny_binary_path, tmp_path, capsys):
        stale = _with_metadata(tiny_binary_path, tmp_path / "stale.medusa",
                               format_version=1)
        assert main(["lint", stale]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: artifact has format version 1 but "
                              "this code reads version 2")


class TestValidateCommand:
    def test_clean_artifact_passes(self, tiny_binary_path, capsys):
        assert main(["validate", "--artifact", tiny_binary_path]) == 0
        assert "validation: PASSED" in capsys.readouterr().out

    def test_json_output(self, tiny_binary_path, capsys):
        assert main(["validate", "--artifact", tiny_binary_path,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["model"] == "Tiny-2L"
        assert payload["diagnostics"] == []

    def test_lint_errors_fail_before_any_restore(self, tiny_binary_path,
                                                 tmp_path, capsys):
        bad = _with_metadata(tiny_binary_path, tmp_path / "bad.medusa",
                             first_layer_nodes=10**4)
        assert main(["validate", "--artifact", bad]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_missing_artifact_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--artifact",
                     str(tmp_path / "nope.medusa")]) == 2
        assert "error:" in capsys.readouterr().err


class TestValidateDegradedExitCode:
    """Exit 3 = degraded but serving; 1 stays a hard failure (exit codes
    must let CI tell "we limped home" apart from "we crashed")."""

    @pytest.fixture()
    def corrupt_artifact_path(self, tiny_binary_path, tmp_path):
        """The binary file with the injector's own ARTIFACT_CORRUPTION of
        graph 1 written into its ``g1_param_byte_offsets`` member."""
        from repro.core.chunks import open_binary
        from repro.faults import FaultInjector, FaultKind, FaultPlan, \
            FaultSpec
        from tests.conftest import resaved
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(
            FaultKind.ARTIFACT_CORRUPTION, batch_size=1),)))
        table = injector.corrupted_tables(open_binary(tiny_binary_path))[1]

        def corrupt(members, meta):
            members["g1_param_byte_offsets"] = table.param_byte_offsets
        return resaved(tiny_binary_path, tmp_path / "corrupt.medusa",
                       corrupt)

    def test_degraded_ok_exits_three(self, corrupt_artifact_path, capsys):
        assert main(["validate", "--artifact", corrupt_artifact_path,
                     "--degraded-ok"]) == 3
        output = capsys.readouterr().out
        assert "validation: PASSED" in output
        assert "rung" in output
        assert "MED011" in output

    def test_same_artifact_without_flag_exits_one(self,
                                                  corrupt_artifact_path,
                                                  capsys):
        assert main(["validate", "--artifact", corrupt_artifact_path]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_clean_artifact_with_flag_exits_zero(self, tiny_binary_path,
                                                 capsys):
        # The ladder and its output check run on the plan the input takes
        # without the flag; a run that stays on the full rung keeps the
        # plain plan name, and its output check is a timeline stage.
        assert main(["validate", "--artifact", tiny_binary_path,
                     "--degraded-ok"]) == 0
        output = capsys.readouterr().out
        assert "rung" not in output
        assert "(plan: medusa-pipelined)" in output
        assert "+degraded" not in output
        assert any(line.split()[:1] == ["restore_verify"]
                   for line in output.splitlines())

    def test_hard_failure_still_exits_one(self, tiny_binary_path, capsys):
        # A model mismatch is not a restore fault the ladder can absorb.
        assert main(["validate", "--artifact", tiny_binary_path,
                     "--model", "Tiny-4L", "--degraded-ok"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_degraded_json_carries_the_ladder(self, corrupt_artifact_path,
                                              capsys):
        assert main(["validate", "--artifact", corrupt_artifact_path,
                     "--degraded-ok", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["degradation"]["rung"] == "partial"
        assert payload["degradation"]["degraded"] is True


class TestSimulateStrategies:
    def test_simulate_deferred_strategy(self, capsys):
        from repro.cli import main
        assert main(["simulate", "--model", "Qwen1.5-0.5B", "--rps", "1",
                     "--duration", "15", "--gpus", "1",
                     "--strategy", "deferred"]) == 0
        output = capsys.readouterr().out
        assert "Deferred capture" in output
        assert "cold_starts" in output


#: Every command that opens an artifact, ready for its path.
_OPENING_COMMANDS = pytest.mark.parametrize("argv", [
    ["restore", "--model", "Tiny-2L", "--artifact"],
    ["coldstart", "--model", "Tiny-2L", "--strategy", "medusa",
     "--artifact"],
    ["validate", "--artifact"],
    ["lint"],
], ids=["restore", "coldstart", "validate", "lint"])


def _flip_last_byte(data: bytearray) -> None:
    data[-1] ^= 0x01


def _bad_magic(data: bytearray) -> None:
    data[7:8] = b"2"


def _manifest_past_the_end(data: bytearray) -> None:
    data[8:16] = (len(data) + 1).to_bytes(8, "little")


def _blob_offset_past_the_end(data: bytearray) -> None:
    from repro.core.chunks import FILE_MAGIC
    table = len(FILE_MAGIC) + 8 + int.from_bytes(data[8:16], "little")
    data[table:table + 8] = len(data).to_bytes(8, "little")


def _truncated(data: bytearray) -> None:
    del data[-10:]


def _wrong_typed_members():
    """One ``(member, corrupt, message)`` case per bulk member the format
    defines (graph members of batch size 1): a string table re-saved as
    integers, every other member as floats."""
    from repro.core.binfmt import GRAPH_MEMBERS, KERNEL_MEMBERS, REPLAY_MEMBERS
    cases = [pytest.param(name, lambda column: np.arange(column.size),
                          f"member '{name}' of dtype", id=name)
             for name in KERNEL_MEMBERS]
    for name in REPLAY_MEMBERS + tuple(f"g1_{name}" for name in GRAPH_MEMBERS):
        message = "graph 1 has an edge member of shape" \
            if name == "g1_edges" else f"member '{name}' has shape"
        cases.append(pytest.param(
            name, lambda column: column.astype("float32"), message, id=name))
    return cases


class TestMalformedArtifactExitCodes:
    """Every command that opens an artifact reports a malformed one as
    ``error: …`` with exit code 2, never a traceback."""

    @pytest.fixture(scope="class")
    def good_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("binary") / "good.medusa"
        assert main(["offline", "--model", "Tiny-2L", "--output",
                     str(path)]) == 0
        return path

    @_OPENING_COMMANDS
    def test_metadata_less_file_exits_two(self, good_file, tmp_path, argv,
                                          capsys):
        from tests.conftest import rewrite_manifest
        path = rewrite_manifest(good_file, tmp_path / "bare.medusa",
                                lambda payload: payload.pop("metadata"))
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no metadata" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutate,message", [
        (_bad_magic, _EXPORT_ONLY),
        (_manifest_past_the_end, "runs past the end of the file"),
        (_blob_offset_past_the_end, "runs past the end of"),
        (_truncated, "runs past the end of"),
        (_flip_last_byte, "failed content-hash verification"),
    ], ids=["bad-magic", "manifest-past-the-end", "blob-offset-past-the-end",
            "truncated", "flipped-blob-byte"])
    @_OPENING_COMMANDS
    def test_broken_file_exits_two(self, good_file, tmp_path, mutate,
                                   message, argv, capsys):
        """A file with another magic is no binary artifact; a manifest
        past the end of the file is refused on open, a blob past it when
        it is read, and a blob whose bytes changed fails its digest when
        it is read."""
        data = bytearray(good_file.read_bytes())
        mutate(data)
        path = tmp_path / "broken.medusa"
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err

    @_OPENING_COMMANDS
    def test_malformed_bulk_member_exits_two(self, good_file, tmp_path,
                                             argv, capsys):
        """The file opens and its manifest parses; a bulk member read
        later by the restore or by lint is not a ``.npy`` payload (its
        chunk re-packed under its new digest, so it passes the hash
        check)."""
        from tests.conftest import rewrite_binary
        path = rewrite_binary(good_file, tmp_path / "bad.medusa",
                              members={"ev_kind": lambda _: b"garbage"})
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'ev_kind' is not a .npy payload" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("member,reshape", [
        ("g4_param_values", lambda column: column.astype("float32")),
        ("ev_kind", lambda column: column.reshape(1, -1)),
    ], ids=["float32-param-values", "2d-ev-kind"])
    @_OPENING_COMMANDS
    def test_wrong_dtype_or_shape_member_exits_two(
            self, good_file, tmp_path, member, reshape, argv, capsys):
        """A member that is a well-formed ``.npy`` of the wrong dtype or
        shape fails the table check where the table is built."""
        from tests.conftest import rewrite_binary
        path = rewrite_binary(good_file, tmp_path / "bad.medusa",
                              members={member: reshape})
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"member '{member}' has shape" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("member,corrupt,message",
                             _wrong_typed_members())
    @_OPENING_COMMANDS
    def test_wrong_typed_member_exits_two(self, good_file, tmp_path, member,
                                          corrupt, message, argv, capsys):
        """Every member is type-checked before any command uses it: one of
        the wrong type is refused naming it, whichever command reads the
        file first."""
        from tests.conftest import rewrite_binary
        path = rewrite_binary(good_file, tmp_path / "bad.medusa",
                              members={member: corrupt})
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("member,corrupt,message", [
        ("g1_param_offsets", lambda column: column[:0],
         "inconsistent CSR columns"),
        ("pools", lambda column: column.astype(bool),
         "not a table of distinct strings"),
        ("g1_param_kinds", lambda column: column + 2,
         "graph 1 has a parameter restore of kind code"),
    ], ids=["empty-csr-offsets", "bool-string-table", "unknown-param-kind"])
    @pytest.mark.parametrize("argv", [
        ["coldstart", "--model", "Tiny-2L", "--strategy", "medusa",
         "--artifact"],
        ["validate", "--artifact"],
        ["lint"],
    ], ids=["coldstart", "validate", "lint"])
    def test_malformed_table_exits_two(self, good_file, tmp_path, member,
                                       corrupt, message, argv, capsys):
        """An empty CSR offsets member and a string table re-saved with
        another dtype fail where their table is built."""
        from tests.conftest import rewrite_binary
        path = rewrite_binary(good_file, tmp_path / "bad.medusa",
                              members={member: corrupt})
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,field", [
        ("first_layer_nodes", "3", "first_layer_nodes must be an integer"),
        ("kv_alloc_index", None, "kv_alloc_index must be an integer, not "
                                 "null"),
        ("trigger_plans", [["k", 4]], "trigger_plans[0][1] must be a list"),
        ("graph_meta", {"4": ["a", 1, 26]}, "graph_meta['4'][0] must be an "
                                            "integer"),
        ("graph_meta", {"4": [1, 2]}, "graph_meta['4'] must have 3 "
                                      "entries, not 2"),
    ], ids=["first-layer-string", "kv-index-null", "trigger-ref-int",
            "graph-meta-string", "graph-meta-two-entries"])
    @_OPENING_COMMANDS
    def test_wrong_typed_metadata_exits_two(self, good_file, tmp_path, key,
                                            value, field, argv, capsys):
        """The manifest's metadata is type-checked on open."""
        from tests.conftest import rewrite_binary
        path = rewrite_binary(good_file, tmp_path / "bad.medusa",
                              metadata=lambda meta: meta.update({key: value}))
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err
        assert "Traceback" not in err

    @_OPENING_COMMANDS
    def test_json_export_exits_two(self, good_file, tmp_path, argv, capsys):
        """A JSON export is no input: one ``error:`` line names the binary
        form and says JSON is export-only."""
        path = tmp_path / "export.json"
        open_binary(good_file).save_json(path)
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not a binary "
                                       f"Medusa artifact")
        assert "repro offline --output <name>.medusa" in captured.err
        assert captured.err.endswith(f"{_EXPORT_ONLY}\n")
        assert captured.err.count("\n") == 1


#: Every command that opens an artifact, as the generated suite runs them.
_COMMANDS = (
    ["lint"],
    ["coldstart", "--model", "Tiny-2L", "--strategy", "medusa",
     "--artifact"],
    ["restore", "--model", "Tiny-2L", "--artifact"],
    ["validate", "--artifact"],
)
#: One value of each JSON type, for a metadata field set to a wrong type.
_JSON_VALUES = ("x", 1.5, None, True, 7, [], {})


class TestGeneratedBinaryInputs:
    """Generated malformed binary artifacts, each through ``lint``,
    ``coldstart --strategy medusa``, ``restore`` and ``validate``: every
    call ends in a documented exit code (0, 1 or 2), exit 2 with an
    ``error:`` line, and none raises.  The mutants are the Tiny-2L file
    truncated, with a byte flipped, one entry of an integer member
    changed by ±1, ±8 or ±64, a member dropped from the manifest, or a
    manifest metadata field set to a wrong type.  A well-formed mutant
    that changes what the artifact means may exit 0 or 1: telling it
    apart is the restore oracle's job, not the reader's."""

    @pytest.fixture(scope="class")
    def clean(self, tiny_binary_path, tmp_path_factory):
        members = open_binary(tiny_binary_path).members()
        integers = sorted(name for name, column in members.items()
                          if column.dtype.kind in "iu")
        return (tiny_binary_path, integers,
                tmp_path_factory.mktemp("fuzz") / "m.medusa")

    @staticmethod
    def _mutant(source, integers, path, data) -> None:
        from tests.conftest import rewrite_binary, rewrite_manifest
        mutation = data.draw(st.sampled_from(
            ("truncate", "flip", "shift", "drop", "retype")),
            label="mutation")
        raw = bytearray(open(source, "rb").read())
        if mutation == "truncate":
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif mutation == "flip":
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(
                st.integers(1, 255))
            path.write_bytes(raw)
        elif mutation == "shift":
            member = data.draw(st.sampled_from(integers), label="member")
            position = data.draw(st.integers(0, 2 ** 20))
            delta = data.draw(st.sampled_from((1, 8, 64, -1, -8, -64)))
            edited = []

            def shift(part):
                if edited or not part.size:     # the first part only
                    return part
                edited.append(member)
                part = part.copy()
                flat = part.reshape(-1)         # a view of the copy
                index = position % flat.size
                flat[index] = np.array(int(flat[index]) + delta).astype(
                    part.dtype)
                return part
            rewrite_binary(source, path, members={member: shift})
        elif mutation == "drop":
            def drop(payload):
                ref = data.draw(st.sampled_from(payload["chunks"]))
                ref["members"].remove(data.draw(
                    st.sampled_from(ref["members"]), label="member"))
            rewrite_manifest(source, path, drop)
        else:
            def retype(meta):
                key = data.draw(st.sampled_from(sorted(meta)), label="key")
                meta[key] = data.draw(st.sampled_from(
                    [value for value in _JSON_VALUES
                     if type(value) is not type(meta[key])]))
            rewrite_binary(source, path, metadata=retype)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mutant_ends_in_a_documented_exit_code(self, clean, data):
        source, integers, path = clean
        self._mutant(source, integers, path, data)
        for argv in _COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv + [str(path)])
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                assert err.getvalue().startswith("error:"), (argv, err)


class TestRestoreFailureExitCodes:
    """A readable artifact whose restore fails exits 1 with ``error:``."""

    @pytest.mark.parametrize("argv", [
        ["coldstart", "--model", "Tiny-4L", "--strategy", "medusa",
         "--artifact"],
        ["restore", "--model", "Tiny-4L", "--artifact"],
    ], ids=["coldstart", "restore"])
    def test_restoration_error_exits_one(self, tiny_binary_path, argv,
                                         capsys):
        assert main(argv + [tiny_binary_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "artifact is for Tiny-2L" in err

    @staticmethod
    def _wrong(tiny_binary_path, tmp_path, field, value) -> str:
        """The Tiny-2L binary artifact with metadata ``field`` set to
        ``value`` (``size``: one allocation's size set to 0)."""
        from tests.conftest import resaved
        path = tmp_path / "wrong.medusa"
        if field != "size":
            return _with_metadata(tiny_binary_path, path, **{field: value})

        def zero_size(members, meta):
            allocs = np.flatnonzero(members["ev_kind"][5:] == 0)
            members["ev_size"][5 + allocs[0]] = 0
        return resaved(tiny_binary_path, path, zero_size)

    @pytest.mark.parametrize("field,value,coldstart_code,message", [
        ("first_layer_nodes", -1, 1, "(MED023, MED031); refusing to restore"),
        ("kv_num_blocks", -1, 1, "need at least one KV block"),
        ("kv_layer_stride", -1, 0, "maps to no live allocation"),
        ("size", None, 1, "(MED002, MED004); refusing to restore"),
    ], ids=["first-layer-negative", "kv-blocks-negative",
            "kv-stride-negative", "event-of-size-zero"])
    def test_well_formed_wrong_artifact_fails_the_restore(
            self, tiny_binary_path, tmp_path, field, value,
            coldstart_code, message, capsys):
        """Well-formed artifacts whose values are wrong: lint refuses
        them, or the restore (or the validation after it) fails, with
        exit 1 and never a traceback."""
        path = self._wrong(tiny_binary_path, tmp_path, field, value)
        capsys.readouterr()
        assert main(["coldstart", "--model", "Tiny-2L", "--strategy",
                     "medusa", "--artifact", str(path)]) == coldstart_code
        assert main(["validate", "--artifact", str(path)]) == 1
        err = capsys.readouterr().err
        assert "validation: FAILED" in err
        assert message in err

    @pytest.mark.parametrize("field,value,message", [
        ("first_layer_nodes", -1, "its module was never loaded"),
        ("size", None, "non-positive size 0"),
    ], ids=["first-layer-negative", "event-of-size-zero"])
    def test_the_restore_checks_what_lint_refuses(
            self, tiny_binary_path, tmp_path, field, value, message):
        """A cold start through the API does not lint; the restore's own
        checks still fail the artifacts the CLI refuses first."""
        from repro.core.online import cold_start_for
        from repro.engine import Strategy
        from repro.errors import ReproError
        artifact = open_binary(
            self._wrong(tiny_binary_path, tmp_path, field, value))
        with pytest.raises(ReproError, match=message):
            cold_start_for("Tiny-2L", Strategy.MEDUSA, artifact=artifact)

    @pytest.mark.parametrize("node_ref", [[1, 99999], [3, 0]],
                             ids=["node-past-graph", "batch-missing"])
    def test_trigger_plan_past_the_graph_fails_the_restore(
            self, tiny_binary_path, tmp_path, node_ref, capsys):
        """A trigger plan naming a node or batch size the artifact lacks:
        lint reports it as MED032, so the CLI cold start refuses it
        (exit 1), and a cold start that skips lint fails in the restore,
        naming the plan."""
        from repro.core.online import cold_start_for
        from repro.engine import Strategy
        from repro.errors import RestorationError
        kernel = open_binary(tiny_binary_path).graph_table(
            1).node_kernel_names()[0]
        path = _with_metadata(tiny_binary_path, tmp_path / "trigger.medusa",
                              trigger_plans=[[kernel, node_ref]])
        capsys.readouterr()
        assert main(["coldstart", "--model", "Tiny-2L", "--strategy",
                     "medusa", "--artifact", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "(MED032); refusing to restore" in err
        assert main(["lint", path]) == 1
        assert "MED032" in capsys.readouterr().out
        with pytest.raises(RestorationError) as raised:
            cold_start_for("Tiny-2L", Strategy.MEDUSA,
                           artifact=open_binary(path))
        assert "trigger_plans[0]" in str(raised.value)
        assert kernel in str(raised.value)

    def test_kv_blocks_past_the_buffer_fail_before_allocating(
            self, tiny_binary_path, tmp_path, capsys):
        """2**31 KV blocks do not fit the restored KV buffer: the cold
        start exits 1 before the KV region is built."""
        path = _with_metadata(tiny_binary_path, tmp_path / "blocks.medusa",
                              kv_num_blocks=2 ** 31)
        capsys.readouterr()
        assert main(["coldstart", "--model", "Tiny-2L", "--strategy",
                     "medusa", "--artifact", path]) == 1
        assert "2147483648 KV blocks" in capsys.readouterr().err


class TestStoreCommand:
    """``repro store stats`` on a good store and on malformed ones."""

    @pytest.fixture
    def store_dir(self, tmp_path, tiny2l_artifact):
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        ArtifactStore(tmp_path).put(artifact)
        return tmp_path

    def test_missing_directory_exits_two_and_creates_nothing(
            self, tmp_path, capsys):
        missing = tmp_path / "typo" / "store"
        assert main(["store", "stats", "--dir", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no artifact store at {missing}\n"
        assert captured.out == ""
        assert not (tmp_path / "typo").exists()

    def test_table(self, store_dir, tiny2l_artifact, capsys):
        artifact, _ = tiny2l_artifact
        assert main(["store", "stats", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert f"Artifact store: {store_dir}" in out
        assert artifact.gpu_name in out and artifact.model_name in out
        assert "dedup ratio: 1.000x" in out

    def test_json(self, store_dir, tiny2l_artifact, capsys):
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        assert main(["store", "stats", "--dir", str(store_dir),
                     "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats == json.loads(json.dumps(
            ArtifactStore(store_dir).stats()))
        key = f"{artifact.gpu_name}::{artifact.model_name}"
        assert list(stats["models"]) == [key]
        assert stats["dedup_ratio"] == 1.0

    @pytest.mark.parametrize("index, manifest", [
        ("{broken", None),
        (json.dumps({"A100::Gone": "gone.medusa.manifest.json"}), None),
        (json.dumps({"A100::Bad": "bad.medusa.manifest.json"}), b"{not json"),
        (json.dumps({"A100::Bad": "bad.medusa.manifest.json"}), b"\xff\xfe"),
        (json.dumps({"A100::Bad": "bad.medusa.manifest.json"}),
         b'{"chunk_format_version": 1}'),
        ("[1]", None),
    ], ids=["corrupt-index", "missing-manifest", "unparsable-manifest",
            "binary-manifest", "manifest-without-fields", "index-not-object"])
    def test_malformed_store_exits_two(self, tmp_path, index, manifest,
                                       capsys):
        (tmp_path / "index.json").write_text(index)
        if manifest is not None:
            (tmp_path / "bad.medusa.manifest.json").write_bytes(manifest)
        assert main(["store", "stats", "--dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("layout", [
        "index-is-a-directory", "index-not-utf8", "entry-names-a-directory",
        "entry-names-a-manifest-directory", "entry-outside-the-store"])
    def test_unreadable_store_exits_two(self, tmp_path, layout, capsys):
        store = tmp_path / "store"
        store.mkdir()
        index = store / "index.json"
        if layout == "index-is-a-directory":
            index.mkdir()
        elif layout == "index-not-utf8":
            index.write_bytes(b"{\"a::b\": \"\xff\xfe\"}")
        elif layout == "entry-names-a-directory":
            (store / "chunks").mkdir()
            index.write_text(json.dumps({"x::y": "chunks"}))
        elif layout == "entry-names-a-manifest-directory":
            (store / "m.medusa.manifest.json").mkdir()
            index.write_text(json.dumps({"x::y": "m.medusa.manifest.json"}))
        else:
            # A readable manifest outside the root is refused, not read.
            (tmp_path / "x.medusa.manifest.json").write_text("{}")
            index.write_text(json.dumps(
                {"x::y": "../x.medusa.manifest.json"}))
        assert main(["store", "stats", "--dir", str(store)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


#: Store mutations for :class:`TestGeneratedStoreInputs`.
_STORE_MUTATIONS = (
    "index-truncate", "index-flip", "index-retype", "entry-missing",
    "entry-directory", "entry-outside", "manifest-truncate",
    "manifest-flip", "manifest-digest", "manifest-reorder")
#: The mutations no draw can leave readable.
_STORE_ALWAYS_BROKEN = (
    "index-truncate", "index-retype", "entry-missing", "entry-directory",
    "entry-outside", "manifest-truncate", "manifest-digest")


class TestGeneratedStoreInputs:
    """Generated malformed Tiny-2L stores through ``repro store stats``,
    the CLI's one path to a store: every run exits 0 or 2, exit 2 prints
    exactly one ``error:`` line, and none raises.  The mutants are an
    index truncated, with a byte flipped or holding a wrong value type;
    an index entry naming a missing file, a directory or a path outside
    the store; and a manifest truncated, with a byte flipped, holding a
    digest that is not a sha256, or with its refs reordered."""

    @pytest.fixture(scope="class")
    def clean(self, tiny2l_artifact, tmp_path_factory):
        from repro.core.store import ArtifactStore
        root = tmp_path_factory.mktemp("store-fuzz")
        ArtifactStore(root / "clean").put(tiny2l_artifact[0])
        (manifest,) = (root / "clean").glob("*.medusa.manifest.json")
        return root / "clean", manifest.name, root / "mutant"

    @staticmethod
    def _mutant(clean, manifest_name, store, mutation, data) -> None:
        import shutil
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(clean, store)
        index_path = store / "index.json"
        manifest_path = store / manifest_name
        target = index_path if mutation.startswith("index") \
            else manifest_path
        raw = bytearray(target.read_bytes())
        if mutation.endswith("truncate"):
            target.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif mutation.endswith("flip"):
            raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(
                st.integers(1, 255))
            target.write_bytes(raw)
        elif mutation == "index-retype":
            index = json.loads(raw)
            key = next(iter(index))
            index[key] = data.draw(st.sampled_from(
                [value for value in _JSON_VALUES if value != "x"]))
            index_path.write_text(json.dumps(
                data.draw(st.sampled_from([index, [index], 7]))))
        elif mutation.startswith("entry"):
            name = {"entry-missing": "gone.medusa.manifest.json",
                    "entry-directory": "chunks",
                    "entry-outside": f"../clean/{manifest_name}"}[mutation]
            index_path.write_text(json.dumps({"x::y": name}))
        else:
            payload = json.loads(raw)
            refs = payload["chunks"]
            if mutation == "manifest-digest":
                ref = data.draw(st.sampled_from(refs))
                ref["digest"] = data.draw(st.sampled_from(
                    ["", "x" * 64, ref["digest"][:-1], ref["digest"].upper(),
                     None, 7]))
            else:
                payload["chunks"] = data.draw(st.permutations(refs))
            manifest_path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("mutation", _STORE_MUTATIONS)
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_mutant_ends_in_a_documented_exit_code(self, clean, mutation,
                                                   data):
        source, manifest_name, store = clean
        self._mutant(source, manifest_name, store, mutation, data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["store", "stats", "--dir", str(store)])
        assert code in (0, 2), code
        if mutation in _STORE_ALWAYS_BROKEN:
            assert code == 2, mutation
        if code == 2:
            assert err.getvalue().startswith("error:"), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert out.getvalue() == ""

    def test_a_deleted_blob_fails_the_restore_naming_its_chunk(
            self, clean, tmp_path):
        import shutil
        from repro.core.online import medusa_cold_start
        from repro.core.store import ArtifactStore
        from repro.errors import ArtifactError
        from tests.conftest import tiny_cost_model
        source, _name, _mutant = clean
        shutil.copytree(source, tmp_path / "store")
        store = ArtifactStore(tmp_path / "store")
        ((gpu, model),) = store.list()
        ref = store.manifest(gpu, model).chunks[0]
        (tmp_path / "store" / "chunks" / ref.digest).unlink()
        with pytest.raises(ArtifactError, match=re.escape(ref.name)):
            medusa_cold_start(model, store.get_lazy(gpu, model),
                              cost_model=tiny_cost_model())
