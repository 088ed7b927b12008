"""Concurrent-client tests: the acceptance criteria of the serving layer.

N parallel clients submitting the same characterization against a cold
store must collapse into ONE batch window whose shared session overlay
dedups the overlapping work down to a single simulated pass -- and every
client must receive result JSON byte-identical to a direct
``Session.run`` of the same job.
"""

import asyncio
import json

from _serve_helpers import http_post, running_service, wait_terminal

from repro.api.jobs import job_from_json
from repro.api.session import Session
from repro.core.sweep import simulated_unit_count

CHARACTERIZE = {
    "type": "characterize",
    "operator": "rca8",
    "pattern": {"vectors": 240},
}


def grid_size() -> int:
    return len(Session(store=None).flow_for("rca8").default_triad_grid())


class TestOverlappingClients:
    def test_four_clients_one_simulated_pass_byte_identical_results(
        self, tmp_path
    ):
        clients = [f"client-{i}" for i in range(4)]

        async def main():
            loop = asyncio.get_running_loop()
            # A wide admission window guarantees all four concurrent posts
            # land in the same batch.
            async with running_service(
                tmp_path / "store", window_s=0.4
            ) as service:
                before = simulated_unit_count()
                posts = [
                    loop.run_in_executor(
                        None, http_post, service.port, CHARACTERIZE, client
                    )
                    for client in clients
                ]
                submitted = await asyncio.gather(*posts)
                finals = await asyncio.gather(
                    *(
                        wait_terminal(service.port, doc["id"])
                        for _, doc, _ in submitted
                    )
                )
                simulated = simulated_unit_count() - before
                return submitted, finals, simulated

        submitted, finals, simulated = asyncio.run(main())
        units = grid_size()

        for status, doc, _ in submitted:
            assert status == 202
        assert all(final["status"] == "done" for final in finals)

        # Exactly one simulated pass over the distinct work units: the four
        # identical jobs shared one admission window, the first simulated
        # the grid and the other three replayed it from the session overlay
        # (3 of every 4 planned units deduplicated).
        assert simulated == units
        for final in finals:
            report = final["batch"]
            assert report["jobs"] == len(finals)
            assert report["planned_units"] == len(finals) * units
            assert report["deduped_units"] == (len(finals) - 1) * units
            assert report["cache_hits"] == 0
            assert report["simulated_units"] == units

        # Byte-identity: every client's result document equals a direct
        # Session.run of the same job (modulo the per-run RunReport, which
        # the service serves separately under "run").
        direct = Session(store=None).run(job_from_json(CHARACTERIZE))
        expected_doc = direct.to_json()
        expected_doc.pop("run", None)
        expected = json.dumps(expected_doc, sort_keys=True)
        for final in finals:
            assert json.dumps(final["result"], sort_keys=True) == expected

    def test_burst_of_posts_hits_the_rate_limit(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(
                tmp_path / "store",
                rate_per_s=0.001,
                burst=2,
                window_s=0.2,
            ) as service:
                posts = [
                    loop.run_in_executor(
                        None,
                        http_post,
                        service.port,
                        CHARACTERIZE,
                        "bursty",
                    )
                    for _ in range(6)
                ]
                results = await asyncio.gather(*posts)
                admitted = [doc for status, doc, _ in results if status == 202]
                limited = [
                    (doc, headers)
                    for status, doc, headers in results
                    if status == 429
                ]
                assert len(admitted) == 2
                assert len(limited) == 4
                for doc, headers in limited:
                    assert float(headers["Retry-After"]) > 0
                    assert "rate" in doc["error"]
                for doc in admitted:
                    final = await wait_terminal(service.port, doc["id"])
                    assert final["status"] == "done"

        asyncio.run(main())
