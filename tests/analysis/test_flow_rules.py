"""Dataflow-rule fixtures: SEED001, PACK002, RES001, WIRE001, PARSE000.

Same shape as ``test_rules.py`` — self-contained snippet trees under
``tmp_path`` — but exercising the flow-sensitive machinery: branch
joins, interprocedural summaries, exception-path precision, and a
syntax error that must not stop the rest of the run.
"""

from repro.analysis import analyze


def scan(tmp_path, files, **kwargs):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return analyze(
        [tmp_path / rel for rel in files],
        root=tmp_path,
        include_context=False,
        **kwargs,
    )


def rules_found(result):
    return sorted({f.rule for f in result.findings})


#: A cross-module PACK002 tree: the helper hands back unpacked rows
#: that the caller feeds to a packed-domain consumer.
HELPER_FILES = {
    "helper.py": (
        "def fetch(sampler, shots):\n"
        "    return sampler.sample_detectors(shots)\n"
    ),
    "mix.py": (
        "from helper import fetch\n"
        "def run(sampler, shots):\n"
        "    rows = fetch(sampler, shots)\n"
        "    return popcount_rows(rows)\n"
    ),
}


class TestSEED001:
    def test_wall_clock_into_hash_flagged(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "import hashlib\n"
            "import time\n"
            "def fingerprint(task):\n"
            "    stamp = time.time()\n"
            "    payload = f'{task}-{stamp}'\n"
            "    return hashlib.sha256(payload.encode()).hexdigest()\n"
        )})
        assert rules_found(result) == ["SEED001"]
        assert "hashlib.sha256" in result.findings[0].message

    def test_taint_through_helper_summary_flagged(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "import time\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "def identify(task):\n"
            "    salt = _stamp()\n"
            "    return task.strong_id(salt)\n"
        )})
        assert rules_found(result) == ["SEED001"]
        assert "strong_id" in result.findings[0].message

    def test_set_iteration_order_flagged(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "def fingerprint(items):\n"
            "    names = {item.name for item in items}\n"
            "    return circuit_fingerprint(list(names))\n"
        )})
        assert rules_found(result) == ["SEED001"]

    def test_sorted_sanitizes_set_order(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "def fingerprint(items):\n"
            "    names = {item.name for item in items}\n"
            "    return circuit_fingerprint(sorted(names))\n"
        )})
        assert result.findings == []

    def test_unseeded_default_rng_flagged_seeded_clean(self, tmp_path):
        result = scan(tmp_path, {"seeds.py": (
            "import numpy as np\n"
            "def fresh():\n"
            "    noise = np.random.default_rng().integers(2**32)\n"
            "    return chunk_seed_sequence(noise)\n"
            "def derived(base_seed):\n"
            "    rng = np.random.default_rng(base_seed)\n"
            "    return chunk_seed_sequence(rng.integers(2**32))\n"
        )})
        assert rules_found(result) == ["SEED001"]
        assert all("fresh()" in f.message for f in result.findings)

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "import time\n"
            "def identify(task):\n"
            "    salt = time.time()\n"
            "    return task.strong_id(salt)  # repro: ignore[SEED001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["SEED001"]


class TestPACK002Flow:
    def test_taint_through_helper_summary_flagged(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def _fetch(sampler, shots):\n"
            "    return sampler.sample_detectors(shots)\n"
            "def run(sampler, shots):\n"
            "    rows = _fetch(sampler, shots)\n"
            "    return popcount_rows(rows)\n"
        )})
        assert rules_found(result) == ["PACK002"]
        assert "run()" in result.findings[0].message

    def test_cross_module_summary_flagged(self, tmp_path):
        result = scan(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/fetch.py": (
                "def fetch(sampler, shots):\n"
                "    return sampler.sample_detectors(shots)\n"
            ),
            "pkg/count.py": (
                "from pkg.fetch import fetch\n"
                "def run(sampler, shots):\n"
                "    return popcount_rows(fetch(sampler, shots))\n"
            ),
        })
        assert rules_found(result) == ["PACK002"]

    def test_mark_survives_branch_join(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def run(sampler, shots, flag):\n"
            "    if flag:\n"
            "        rows = sampler.sample_detectors(shots)\n"
            "    else:\n"
            "        rows = transform(shots)\n"
            "    return popcount_rows(rows)\n"
        )})
        assert rules_found(result) == ["PACK002"]

    def test_conversion_on_every_path_clean(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "from repro.gf2.bitops import pack_rows\n"
            "def run(sampler, shots, flag):\n"
            "    if flag:\n"
            "        rows = pack_rows(sampler.sample_detectors(shots))\n"
            "    else:\n"
            "        rows = sampler.sample_detectors_packed(shots)\n"
            "    return popcount_rows(rows)\n"
        )})
        assert result.findings == []

    def test_edit_changes_the_verdict(self, tmp_path):
        # The caller's verdict follows the helper's return through the
        # summary table: fixing only the helper clears it, and
        # reverting the helper brings it back.
        result = scan(tmp_path, HELPER_FILES)
        assert [f.rule for f in result.findings] == ["PACK002"]
        fixed = dict(HELPER_FILES)
        fixed["helper.py"] = (
            "def fetch(sampler, shots):\n"
            "    return sampler.sample_detectors_packed(shots)\n"
        )
        assert scan(tmp_path, fixed).findings == []
        result = scan(tmp_path, HELPER_FILES)
        assert [f.rule for f in result.findings] == ["PACK002"]


class TestRES001:
    def test_early_return_leak_flagged(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe(size, limit):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    if size > limit:\n"
            "        return False\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return True\n"
        )})
        assert "RES001" in rules_found(result)
        assert "'seg'" in result.findings[0].message

    def test_with_block_clean(self, tmp_path):
        result = scan(tmp_path, {"io.py": (
            "def read(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )})
        assert result.findings == []

    def test_release_on_all_paths_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        return seg.size\n"
            "    finally:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_acquire_inside_try_exception_path_clean(self, tmp_path):
        # The exception edge into the handler must carry the *any
        # point* join of the try body — the acquisition may not have
        # happened yet, so the handler path holds no obligation.
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def available(size):\n"
            "    try:\n"
            "        seg = SharedMemory(create=True, size=size)\n"
            "    except OSError:\n"
            "        return False\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return True\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_ownership_escape_by_return_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    return seg\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_ownership_escape_by_store_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "class Arena:\n"
            "    def grow(self, size):\n"
            "        seg = SharedMemory(create=True, size=size)\n"
            "        self.segments[seg.name] = seg\n"
            "        return seg.name\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_alias_move_keeps_single_obligation(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    handle = seg\n"
            "    handle.close()\n"
            "    handle.unlink()\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size, limit):\n"
            "    seg = SharedMemory(create=True, size=size)  "
            "# repro: ignore[RES001, WIRE001]\n"
            "    if size > limit:\n"
            "        return False\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return True\n"
        )})
        assert result.findings == []
        assert sorted(f.rule for f in result.suppressed) == ["RES001"]


class TestRES001SharedMemory:
    """Named shared-memory segments outlive a leaking process, so these
    pin RES001's coverage of the create/attach/unlink patterns."""

    def test_create_kept_captive_flagged(self, tmp_path):
        # Returning only the segment's name keeps the handle captive:
        # nobody can unlink it afterwards.
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    return seg.name\n"
        )})
        assert rules_found(result) == ["RES001"]
        assert "'seg'" in result.findings[0].message

    def test_attached_handle_left_open_flagged(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def peek(name):\n"
            "    seg = SharedMemory(name=name)\n"
            "    return bytes(seg.buf[:8])\n"
        )})
        assert rules_found(result) == ["RES001"]

    def test_unlink_on_exception_then_handoff_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def make(size, fill):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        fill(seg.buf)\n"
            "    except BaseException:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
            "        raise\n"
            "    return seg\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_finalize_backstop_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "import weakref\n"
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def _unlink(seg):\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "class Arena:\n"
            "    def grow(self, size):\n"
            "        seg = SharedMemory(create=True, size=size)\n"
            "        weakref.finalize(self, _unlink, seg)\n"
            "        return seg.name\n"
        )})
        assert result.findings == []

    def test_attach_handed_to_caller_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def attach(name):\n"
            "    return SharedMemory(name=name)\n"
        )})
        assert result.findings == []


class TestWIRE001:
    def test_lambda_into_spec_flagged(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "def make(chunk_id):\n"
            "    task = lambda x: x + 1\n"
            "    return ChunkSpec(task=task, chunk_id=chunk_id)\n"
        )})
        assert rules_found(result) == ["WIRE001"]
        assert "'task'" in result.findings[0].message
        assert "closure" in result.findings[0].message

    def test_live_array_into_spec_flagged(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "import numpy as np\n"
            "def make(chunk_id, n):\n"
            "    buf = np.zeros(n)\n"
            "    return ChunkSpec(payload=buf, chunk_id=chunk_id)\n"
        )})
        assert rules_found(result) == ["WIRE001"]
        assert "ndarray" in result.findings[0].message

    def test_lock_into_spec_flagged(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "from threading import Lock\n"
            "def make(chunk_id):\n"
            "    guard = Lock()\n"
            "    return ChunkSpec(guard=guard, chunk_id=chunk_id)\n"
        )})
        assert rules_found(result) == ["WIRE001"]

    def test_header_only_spec_clean(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "def make(blob_name, chunk_id, shots):\n"
            "    return ChunkSpec(\n"
            "        circuit_ref=blob_name,\n"
            "        chunk_id=chunk_id,\n"
            "        shots=shots,\n"
            "    )\n"
        )})
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "def make(chunk_id):\n"
            "    task = lambda x: x + 1\n"
            "    return ChunkSpec(task=task, chunk_id=chunk_id)  "
            "# repro: ignore[WIRE001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["WIRE001"]


class TestPARSE000:
    BROKEN = "def broken(:\n    return 1\n"

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        files = dict(HELPER_FILES)
        files["broken.py"] = self.BROKEN
        result = scan(tmp_path, files)
        assert rules_found(result) == ["PACK002", "PARSE000"]
        (parse,) = [f for f in result.findings if f.rule == "PARSE000"]
        assert parse.path == "broken.py"
        assert parse.message.startswith("SyntaxError:")
        assert parse.line >= 1
        assert result.exit_code == 1

    def test_other_files_still_fully_analyzed(self, tmp_path):
        # The broken file must not shadow findings elsewhere in the
        # tree — the rest of the run proceeds normally.
        files = dict(HELPER_FILES)
        files["broken.py"] = self.BROKEN
        result = scan(tmp_path, files)
        assert any(f.rule == "PACK002" for f in result.findings)

    def test_clean_tree_with_only_broken_file(self, tmp_path):
        result = scan(tmp_path, {"broken.py": self.BROKEN})
        assert [f.rule for f in result.findings] == ["PARSE000"]
