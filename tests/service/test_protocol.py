"""The line-delimited JSON protocol: dispatch, errors, and the loop."""

import json
import threading
import warnings

import pytest

from repro.service import JobQueue, handle_request, serve_lines
from repro.service.protocol import PROTOCOL

TREE = {"target": "qutrit_tree", "build": {"num_controls": 3},
        "backend": "classical", "input": [1, 1, 1, 0]}


@pytest.fixture()
def queue():
    with JobQueue(workers=2) as live:
        yield live


class TestHandleRequest:
    def test_ping(self, queue):
        assert handle_request(queue, {"op": "ping"}) == {
            "ok": True, "pong": True,
        }

    def test_id_echoed(self, queue):
        response = handle_request(queue, {"op": "ping", "id": "abc"})
        assert response["id"] == "abc"

    def test_submit_wait_inlines_result(self, queue):
        response = handle_request(
            queue, {"op": "submit", "wait": True, **TREE}
        )
        assert response["ok"]
        assert response["state"] == "DONE"
        assert response["result"]["values"] == [1, 1, 1, 1]
        assert response["latency_ms"] >= 0

    def test_submit_async_then_result(self, queue):
        submitted = handle_request(queue, {"op": "submit", **TREE})
        assert submitted["ok"]
        job_id = submitted["job"]
        response = handle_request(
            queue, {"op": "result", "job": job_id, "timeout": 30}
        )
        assert response["ok"]
        assert response["result"]["values"] == [1, 1, 1, 1]
        status = handle_request(queue, {"op": "status", "job": job_id})
        assert status == {"ok": True, "job": job_id, "state": "DONE"}

    def test_submit_with_noise_and_seed(self, queue):
        response = handle_request(queue, {
            "op": "submit", "wait": True, "target": "qutrit_tree",
            "build": {"num_controls": 3}, "backend": "trajectory",
            "noise": "SC", "trials": 3, "seed": 7,
        })
        assert response["ok"]
        assert response["result"]["type"] == "FidelityResult"

    def test_unknown_noise_is_an_error(self, queue):
        response = handle_request(queue, {
            "op": "submit", "target": "qutrit_tree",
            "build": {"num_controls": 3}, "noise": "NOPE",
        })
        assert not response["ok"]
        assert "unknown noise model" in response["error"]

    def test_missing_target_is_an_error(self, queue):
        response = handle_request(queue, {"op": "submit"})
        assert not response["ok"]
        assert "target" in response["error"]

    def test_unknown_job_is_an_error(self, queue):
        response = handle_request(
            queue, {"op": "status", "job": "job-424242"}
        )
        assert not response["ok"]

    def test_unknown_op_is_an_error(self, queue):
        response = handle_request(queue, {"op": "frobnicate"})
        assert not response["ok"]
        assert "unknown op" in response["error"]

    def test_cancel_terminal_job_reports_false(self, queue):
        submitted = handle_request(
            queue, {"op": "submit", "wait": True, **TREE}
        )
        response = handle_request(
            queue, {"op": "cancel", "job": submitted["job"]}
        )
        assert response["ok"]
        assert response["cancelled"] is False
        assert response["state"] == "DONE"

    def test_stats_snapshot(self, queue):
        handle_request(queue, {"op": "submit", "wait": True, **TREE})
        response = handle_request(queue, {"op": "stats"})
        assert response["ok"]
        assert response["stats"]["submitted"] == 1
        assert response["stats"]["workers"] == 2

    def test_queue_full_maps_to_rejected(self):
        gate = threading.Event()

        def parked(request):
            gate.wait(timeout=30)
            raise AssertionError("never completes in this test")

        queue = JobQueue(workers=1, max_pending=1, runner=parked)
        try:
            handle_request(queue, {"op": "submit", "seed": 1, **TREE})
            handle_request(queue, {"op": "submit", "seed": 2, **TREE})
            response = handle_request(
                queue, {"op": "submit", "seed": 3, **TREE}
            )
            # One of the first two is running, the other queued; the
            # third distinct submission overflows the bound.
            assert not response["ok"]
            assert response["rejected"] is True
        finally:
            gate.set()
            queue.shutdown(wait=False)


class TestServeLines:
    def run(self, queue, requests):
        written = []
        outcome = serve_lines(
            queue,
            [json.dumps(r) if isinstance(r, dict) else r
             for r in requests],
            written.append,
        )
        return outcome, [json.loads(line) for line in written]

    def test_hello_then_eof(self, queue):
        outcome, responses = self.run(queue, [{"op": "ping"}])
        assert outcome == "eof"
        assert responses[0]["protocol"] == PROTOCOL
        assert responses[1] == {"ok": True, "pong": True}

    def test_shutdown_ends_loop(self, queue):
        outcome, responses = self.run(
            queue, [{"op": "shutdown"}, {"op": "ping"}]
        )
        assert outcome == "shutdown"
        # The ping after shutdown was never served.
        assert len(responses) == 2
        assert responses[1]["shutdown"] is True

    def test_bad_json_reports_and_continues(self, queue):
        outcome, responses = self.run(
            queue, ["{not json", {"op": "ping"}]
        )
        assert outcome == "eof"
        assert not responses[1]["ok"]
        assert "bad request" in responses[1]["error"]
        assert responses[2]["pong"] is True

    def test_non_object_request_rejected(self, queue):
        _, responses = self.run(queue, ["[1, 2, 3]", ""])
        assert not responses[1]["ok"]

    def test_full_session(self, queue):
        outcome, responses = self.run(queue, [
            {"op": "submit", "id": 1, "wait": True, **TREE},
            {"op": "stats", "id": 2},
            {"op": "shutdown", "id": 3},
        ])
        assert outcome == "shutdown"
        by_id = {r.get("id"): r for r in responses if "id" in r}
        assert by_id[1]["result"]["values"] == [1, 1, 1, 1]
        assert by_id[2]["stats"]["executed"] == 1
        assert by_id[3]["shutdown"] is True


class TestSubmitInputs:
    """Pipeline names and builder parameters arriving over the wire."""

    def test_pipeline_name_resolves_without_deprecation(self, queue):
        request = {"op": "submit", "wait": True, "target": "qutrit_tree",
                   "build": {"num_controls": 3},
                   "pipeline": "hardware-grid-opt"}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            first = handle_request(queue, request)
            second = handle_request(queue, request)
        assert first["ok"] and second["ok"]
        assert second["served_from"] == "memory"
        stats = handle_request(queue, {"op": "stats"})["stats"]
        assert stats["plans"] == 1
        assert stats["plan_hits"] == 1

    @pytest.mark.parametrize("pipeline", ["no-such-pipeline", 7, ["x"]])
    def test_bad_pipeline_is_a_typed_error(self, queue, pipeline):
        response = handle_request(queue, {
            "op": "submit", "pipeline": pipeline, **TREE,
        })
        assert response["ok"] is False
        assert "internal" not in response
        assert "pipeline" in response["error"]

    @pytest.mark.parametrize(
        "build",
        [
            {"num_controls": [3]},
            {"num_controls": 3.0},
            {"num_controls": {"n": 3}},
            {"num_controls": None},
            [["num_controls", 3]],
            "num_controls=3",
        ],
    )
    def test_malformed_build_parameters_are_typed_errors(self, queue, build):
        for _ in range(2):  # the second pass goes through the memo path
            response = handle_request(queue, {
                "op": "submit", "wait": True, **{**TREE, "build": build},
            })
            assert response["ok"] is False
            assert "internal" not in response
        # The queue keeps serving well-formed requests.
        assert handle_request(queue, {"op": "submit", "wait": True,
                                      **TREE})["ok"]
