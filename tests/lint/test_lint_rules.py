"""Per-rule positive/negative fixtures for every registered RPL rule.

Each rule gets at least one source snippet that must trigger it and one
that must not.  Snippets are linted under synthetic paths (the files never
exist on disk) so the path-scoped rules -- clock seam, resilience seam --
can be exercised from both sides of the fence.
"""

import textwrap

from repro.lint import lint_source


def codes(source, path="src/repro/somewhere.py"):
    """Finding codes for one dedented snippet at a synthetic path."""
    return [f.code for f in lint_source(textwrap.dedent(source), path)]


class TestUnseededRandomRule:
    def test_numpy_module_function_is_flagged(self):
        assert codes(
            """
            import numpy as np
            x = np.random.rand(3)
            """
        ) == ["RPL001"]

    def test_alias_spelling_is_resolved(self):
        assert codes(
            """
            from numpy import random as nprand
            x = nprand.shuffle([1, 2])
            """
        ) == ["RPL001"]

    def test_seeded_generator_is_fine(self):
        assert codes(
            """
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.random(3)
            """
        ) == []

    def test_stdlib_module_function_is_flagged(self):
        assert codes(
            """
            import random
            x = random.choice([1, 2])
            """
        ) == ["RPL001"]

    def test_stdlib_random_instance_is_fine(self):
        assert codes(
            """
            import random
            r = random.Random(0)
            x = r.choice([1, 2])
            """
        ) == []


class TestWallClockRule:
    def test_time_time_is_flagged(self):
        assert codes(
            """
            import time
            t = time.time()
            """
        ) == ["RPL002"]

    def test_datetime_now_is_flagged(self):
        assert codes(
            """
            import datetime
            t = datetime.datetime.now()
            """
        ) == ["RPL002"]

    def test_monotonic_clocks_are_fine(self):
        assert codes(
            """
            import time
            a = time.perf_counter()
            b = time.process_time()
            c = time.monotonic()
            """
        ) == []

    def test_the_clock_seam_itself_is_exempt(self):
        assert codes(
            """
            import time
            t = time.time()
            """,
            path="src/repro/obs/clock.py",
        ) == []


class TestSetIterationRule:
    def test_for_over_set_literal_is_flagged(self):
        assert codes(
            """
            for x in {1, 2}:
                print(x)
            """
        ) == ["RPL003"]

    def test_join_of_set_call_is_flagged(self):
        assert codes(
            """
            names = ["a", "b"]
            out = ",".join(set(names))
            """
        ) == ["RPL003"]

    def test_comprehension_over_set_call_is_flagged(self):
        assert codes(
            """
            values = [v for v in set([3, 1])]
            """
        ) == ["RPL003"]

    def test_sorted_set_is_fine(self):
        assert codes(
            """
            for x in sorted({1, 2}):
                print(x)
            out = ",".join(sorted(set(["a"])))
            """
        ) == []


class TestJsonSortKeysRule:
    def test_dumps_without_sort_keys_is_flagged(self):
        assert codes(
            """
            import json
            text = json.dumps({"a": 1})
            """
        ) == ["RPL004"]

    def test_explicit_false_is_flagged(self):
        assert codes(
            """
            import json
            text = json.dumps({"a": 1}, sort_keys=False)
            """
        ) == ["RPL004"]

    def test_sort_keys_true_is_fine(self):
        assert codes(
            """
            import json
            text = json.dumps({"a": 1}, sort_keys=True)
            """
        ) == []

    def test_computed_kwargs_are_given_the_benefit_of_the_doubt(self):
        assert codes(
            """
            import json
            def emit(document, **kwargs):
                return json.dumps(document, **kwargs)
            """
        ) == []


class TestExecutorSeamRule:
    def test_direct_pool_is_flagged(self):
        assert codes(
            """
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=2)
            """
        ) == ["RPL005"]

    def test_the_resilience_seam_is_exempt(self):
        assert codes(
            """
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=2)
            """,
            path="src/repro/core/resilience.py",
        ) == []


class TestSwallowedExceptionRule:
    def test_silent_broad_except_is_flagged(self):
        assert codes(
            """
            try:
                work()
            except Exception:
                pass
            """
        ) == ["RPL006"]

    def test_bare_except_is_flagged(self):
        assert codes(
            """
            try:
                work()
            except:
                log("oops")
            """
        ) == ["RPL006"]

    def test_broad_member_of_tuple_is_flagged(self):
        assert codes(
            """
            try:
                work()
            except (ValueError, Exception):
                pass
            """
        ) == ["RPL006"]

    def test_reraise_is_fine(self):
        assert codes(
            """
            try:
                work()
            except Exception:
                cleanup()
                raise
            """
        ) == []

    def test_counter_attribute_increment_is_fine(self):
        assert codes(
            """
            try:
                work()
            except Exception:
                stats.errors += 1
            """
        ) == []

    def test_metrics_add_call_is_fine(self):
        assert codes(
            """
            try:
                work()
            except Exception:
                REGISTRY.counter("x.errors").add()
            """
        ) == []

    def test_narrow_except_is_fine(self):
        assert codes(
            """
            try:
                work()
            except ValueError:
                pass
            """
        ) == []


class TestSharedMemoryBanRule:
    def test_construction_is_flagged(self):
        found = codes(
            """
            from multiprocessing import shared_memory
            def attach(name):
                shared_memory.SharedMemory(name=name).close()
            """
        )
        assert "RPL007" in found

    def test_released_handle_at_the_former_seam_path_is_flagged(self):
        assert codes(
            """
            from multiprocessing.shared_memory import SharedMemory
            def careful(name):
                segment = SharedMemory(name=name)
                try:
                    return bytes(segment.buf)
                finally:
                    segment.close()
            """,
            path="src/repro/core/shm.py",
        ) == ["RPL007"]

    def test_reference_without_construction_is_fine(self):
        assert codes(
            """
            from multiprocessing import shared_memory
            def describe(segment: shared_memory.SharedMemory) -> str:
                return segment.name
            """
        ) == []


class TestAsyncBlockingRule:
    def test_time_sleep_in_async_def_is_flagged(self):
        assert codes(
            """
            import time
            async def handler():
                time.sleep(1)
            """
        ) == ["RPL008"]

    def test_sync_path_io_in_async_def_is_flagged(self):
        assert codes(
            """
            async def handler(path):
                return path.read_text()
            """
        ) == ["RPL008"]

    def test_session_run_in_async_def_is_flagged(self):
        assert codes(
            """
            async def handler(self, job):
                return self._session.run(job)
            """
        ) == ["RPL008"]

    def test_same_calls_in_sync_def_are_fine(self):
        assert codes(
            """
            import time
            def handler(self, path, job):
                time.sleep(1)
                path.read_text()
                return self._session.run(job)
            """
        ) == []

    def test_nested_sync_def_inside_async_def_is_fine(self):
        assert codes(
            """
            import time
            async def handler():
                def blocking_part():
                    time.sleep(1)
                return blocking_part
            """
        ) == []


class TestJobRegistryRule:
    def test_unregistered_job_dataclass_is_flagged(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class OldJob:
                width: int

            @dataclasses.dataclass(frozen=True)
            class NewJob:
                width: int

            JOB_TYPES = {"old": OldJob}
            """
        ) == ["RPL009"]

    def test_registered_jobs_are_fine(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class OldJob:
                width: int

            JOB_TYPES = {"old": OldJob}
            """
        ) == []

    def test_modules_without_a_registry_are_ignored(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class HelperJob:
                width: int
            """
        ) == []


class TestRoundTripCoverageRule:
    def test_to_json_dropping_a_field_is_flagged(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class SweepOptions:
                jobs: int
                timeout: float

                def to_json(self):
                    return {"jobs": self.jobs}
            """
        ) == ["RPL010"]

    def test_full_coverage_is_fine(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class SweepOptions:
                jobs: int
                timeout: float

                def to_json(self):
                    return {"jobs": self.jobs, "timeout": self.timeout}
            """
        ) == []

    def test_asdict_bodies_are_accepted(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class SweepOptions:
                jobs: int
                timeout: float

                def to_json(self):
                    return dataclasses.asdict(self)
            """
        ) == []

    def test_result_dataclasses_are_exempt(self):
        assert codes(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class SweepResult:
                jobs: int
                timeout: float

                def to_json(self):
                    return {"jobs": self.jobs}
            """
        ) == []
