"""Content-addressed cache: digest stability and invalidation rules.

The guarantees under test are the ones docs/RUNNING.md promises users:
identical inputs hit, any change to the cost model / parameters /
package version / source of any module in the package misses, and a
corrupt entry degrades to a miss rather than an error.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import Architecture
from repro.host.costs import DEFAULT_COSTS
from repro.runner import ResultCache, canonicalize, point_digest
from repro.runner.cache import bind_full_kwargs


def point_fn(arch, rate_pps, costs=DEFAULT_COSTS, window_usec=100.0):
    return {"arch": arch.value, "rate": rate_pps}


class TestPointDigest:
    def test_same_inputs_same_digest(self):
        a = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=100))
        b = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=100))
        assert a == b

    def test_explicit_defaults_match_implicit(self):
        implicit = point_digest(point_fn,
                                dict(arch=Architecture.BSD,
                                     rate_pps=100))
        explicit = point_digest(point_fn,
                                dict(arch=Architecture.BSD,
                                     rate_pps=100,
                                     costs=DEFAULT_COSTS,
                                     window_usec=100.0))
        assert implicit == explicit

    def test_parameter_change_changes_digest(self):
        a = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=100))
        b = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=200))
        assert a != b

    def test_architecture_change_changes_digest(self):
        a = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=100))
        b = point_digest(point_fn,
                         dict(arch=Architecture.SOFT_LRP,
                              rate_pps=100))
        assert a != b

    def test_cost_model_change_changes_digest(self):
        base = point_digest(point_fn,
                            dict(arch=Architecture.BSD, rate_pps=100))
        bumped = DEFAULT_COSTS.with_overrides(
            hw_intr=DEFAULT_COSTS.hw_intr * 2)
        changed = point_digest(point_fn,
                               dict(arch=Architecture.BSD,
                                    rate_pps=100, costs=bumped))
        assert base != changed

    def test_version_change_changes_digest(self, monkeypatch):
        a = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=100))
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        b = point_digest(point_fn,
                         dict(arch=Architecture.BSD, rate_pps=100))
        assert a != b

    def test_edit_to_another_module_changes_digest(self, tmp_path):
        # The key covers the whole package, not only the point
        # function's own module: a figure-3 point must miss after an
        # edit to the BSD stack.  The package digest is computed once
        # per process, so each revision is keyed in a fresh process.
        shutil.copytree(Path(repro.__file__).parent, tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        probe = ("from repro.core import Architecture\n"
                 "from repro.experiments.figure3 import run_point\n"
                 "from repro.runner.cache import point_digest\n"
                 "print(point_digest(run_point, dict(\n"
                 "    arch=Architecture.BSD, rate_pps=8000)))\n")
        env = dict(os.environ, PYTHONPATH=str(tmp_path))

        def digest():
            return subprocess.run(
                [sys.executable, "-c", probe], env=env, check=True,
                capture_output=True, text=True).stdout.strip()

        before = digest()
        assert digest() == before
        stack = tmp_path / "repro" / "core" / "bsd_stack.py"
        stack.write_text(stack.read_text() + "\n# edited\n")
        assert digest() != before

    def test_digest_is_hex_sha256(self):
        key = point_digest(point_fn,
                           dict(arch=Architecture.BSD, rate_pps=100))
        assert len(key) == 64
        int(key, 16)


class TestCanonicalize:
    def test_enum_and_costs_round_trip_json(self):
        obj = canonicalize({"arch": Architecture.NI_LRP,
                            "costs": DEFAULT_COSTS,
                            "rates": (1, 2, 3)})
        json.dumps(obj, sort_keys=True)

    def test_rejects_uncanonical_values(self):
        with pytest.raises(TypeError):
            canonicalize(object())


class TestBindFullKwargs:
    def test_applies_signature_defaults(self):
        full = bind_full_kwargs(point_fn,
                                dict(arch=Architecture.BSD,
                                     rate_pps=5))
        assert full["window_usec"] == 100.0
        assert full["costs"] is DEFAULT_COSTS


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        hit, _ = cache.get(key)
        assert not hit
        cache.put(key, {"x": 1}, meta={"fn": "f"})
        hit, result = cache.get(key)
        assert hit
        assert result == {"x": 1}
        assert cache.stats() == {"dir": str(tmp_path),
                                 "hits": 1, "misses": 1}

    def test_entries_shard_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, 42, meta={})
        assert (tmp_path / "cd" / f"{key}.json").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, 42, meta={})
        (tmp_path / "ef" / f"{key}.json").write_text("{not json")
        hit, _ = cache.get(key)
        assert not hit

    def test_preserves_result_types(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "12" + "3" * 62
        value = {"rate": 1234.5, "nested": [1, {"k": None}]}
        cache.put(key, value, meta={})
        _, result = cache.get(key)
        assert result == value
