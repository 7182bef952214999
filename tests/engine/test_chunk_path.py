"""One chunk plan, one decode path.

Every chunk is a fixed-size slice of the task's budget, sampled packed
once and decoded once through ``packed_predictions`` — whatever the
decoder.  These pin down that the unified path counts exactly what
decoding the unpacked view counts, that each chunk traces one sample
and at most one decode, and that the knobs of the removed adaptive
chunk sizer fail loudly instead of being ignored.
"""

import importlib

import pytest

import repro.engine as engine
import repro.obs as obs
from repro import cli
from repro.backends import compile_backend
from repro.circuit.circuit import Circuit
from repro.decoders import DecoderInfo, available_decoders, compile_decoder
from repro.dem import extract_dem
from repro.engine import ExecutionOptions, Task, collect, plan_chunks
from repro.engine.workers import run_chunk
from repro.qec import repetition_code_memory
from repro.rng import chunk_generator


def make_task(decoder, backend="frame", p=0.08, max_shots=450):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )
    return Task(
        circuit, decoder=decoder, sampler=backend, max_shots=max_shots
    )


class TestSingleDecodePath:
    @pytest.mark.parametrize("backend", ["frame", "symbolic"])
    @pytest.mark.parametrize("decoder", ["matching", "lookup"])
    def test_errors_equal_unpacked_decode(self, decoder, backend):
        """The adapter path counts what decoding the unpacked stream
        counts: ``(decode_batch(det) != obs).any(axis=1).sum()``."""
        for spec in plan_chunks(make_task(decoder, backend), 9, 150):
            circuit = Circuit.from_text(spec.circuit_text)
            detectors, observables = compile_backend(
                circuit, backend
            ).sample_detectors(
                spec.shots,
                chunk_generator(
                    spec.base_seed, spec.task_entropy, spec.chunk_index
                ),
            )
            predictions = compile_decoder(
                extract_dem(circuit), decoder
            ).decode_batch(detectors)
            expected = int((predictions != observables).any(axis=1).sum())
            assert run_chunk(spec).errors == expected

    @pytest.mark.parametrize(
        "decoder", list(available_decoders()) + ["none"]
    )
    def test_one_sample_and_at_most_one_decode_span(self, decoder):
        obs.enable(tracing=True, metrics=False)
        specs = plan_chunks(make_task(decoder, max_shots=300), 5, 100)
        for spec in specs:
            run_chunk(spec)
        spans = obs.drain_spans()
        names = [span.name for span in spans]
        assert names.count("chunk") == len(specs)
        assert names.count("sample") == len(specs)
        decodes = 0 if decoder == "none" else len(specs)
        assert names.count("decode") == decodes
        # The decode span says whether the pack adapter ran inside it.
        native = decoder == "compiled-matching"
        assert all(
            span.attrs["native"] is native
            for span in spans
            if span.name == "decode"
        )

    def test_decoder_info_has_no_packed_flag(self):
        with pytest.raises(TypeError):
            DecoderInfo(name="x", description="x", packed=True)

    def test_decoders_listing_drops_packed_flag(self, capsys):
        assert cli.main(["decoders"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            flags = line[line.index("[") + 1:line.index("]")].split(", ")
            assert "packed" not in flags


class TestRemovedAdaptiveKnobs:
    """Adaptive chunk sizing is gone; callers that still ask for it get
    an error, never a silently fixed-size run."""

    @pytest.mark.parametrize("kwargs", [
        {"adaptive_chunks": True},
        {"target_chunk_seconds": 0.25},
        {"min_chunk_shots": 256},
        {"max_chunk_shots": 65_536},
    ])
    def test_execution_options_reject_adaptive_fields(self, kwargs):
        with pytest.raises(TypeError):
            ExecutionOptions(**kwargs)

    def test_collect_rejects_adaptive_chunks(self):
        with pytest.raises(TypeError):
            collect(
                [make_task("compiled-matching")], base_seed=1,
                adaptive_chunks=True,
            )

    @pytest.mark.parametrize(
        "name", ["AdaptiveChunkSizer", "plan_chunks_adaptive"]
    )
    def test_engine_exports_are_gone(self, name):
        assert name not in engine.__all__
        with pytest.raises(ImportError):
            exec(f"from repro.engine import {name}", {})

    def test_adaptive_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.adaptive")

    @pytest.mark.parametrize("command", ["collect", "decode"])
    def test_cli_rejects_auto_chunk_shots(self, command, capsys):
        argv = [command] + (["c.stim"] if command == "decode" else [])
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + ["--chunk-shots", "auto"])
        assert exc.value.code == 2
        assert "expected a positive integer, got 'auto'" in (
            capsys.readouterr().err
        )
