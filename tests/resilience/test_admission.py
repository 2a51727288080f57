"""Unit tests for deadline-aware admission control."""

import pickle

import pytest

from repro.resilience import ADMIT, SHED, AdmissionController, OverloadPolicy
from repro.serving.loadgen import Request


def _request(arrival_us=0.0, slo_us=25.0):
    return Request(
        request_id=0,
        indices=(1, 2, 3),
        arrival_us=arrival_us,
        deadline_us=arrival_us + slo_us,
    )


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = OverloadPolicy()
        assert policy.safety_margin_us == 0.0
        assert policy.max_queue_depth is None

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError, match="safety_margin_us"):
            OverloadPolicy(safety_margin_us=-1.0)

    def test_rejects_nonpositive_depth_cap(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            OverloadPolicy(max_queue_depth=0)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="ewma_alpha"):
            OverloadPolicy(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="ewma_alpha"):
            OverloadPolicy(ewma_alpha=1.5)

    def test_rejects_negative_initial_estimate(self):
        with pytest.raises(ValueError, match="initial_service_us"):
            OverloadPolicy(initial_service_us=-0.1)

    def test_picklable_and_frozen(self):
        policy = OverloadPolicy(safety_margin_us=2.0, max_queue_depth=32)
        assert pickle.loads(pickle.dumps(policy)) == policy
        with pytest.raises(AttributeError):
            policy.safety_margin_us = 1.0


def one_batch_ahead(controller):
    """The controller's batch-service estimate, as the forecast for an
    empty queue on an idle accelerator charges it."""
    return controller.forecast_complete_us(0.0, 0, 0.0)


class TestController:
    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            AdmissionController(OverloadPolicy(), batch_size=0, default_service_us=5.0)

    def test_initial_estimate_prefers_policy_override(self):
        controller = AdmissionController(
            OverloadPolicy(initial_service_us=9.0),
            batch_size=4,
            default_service_us=5.0,
        )
        assert one_batch_ahead(controller) == 9.0

    def test_initial_estimate_falls_back_to_default(self):
        controller = AdmissionController(
            OverloadPolicy(), batch_size=4, default_service_us=5.0
        )
        assert one_batch_ahead(controller) == 5.0

    def test_ewma_converges_toward_observations(self):
        controller = AdmissionController(
            OverloadPolicy(ewma_alpha=0.5), batch_size=4, default_service_us=10.0
        )
        controller.observe(20.0)
        assert one_batch_ahead(controller) == pytest.approx(15.0)
        controller.observe(20.0)
        assert one_batch_ahead(controller) == pytest.approx(17.5)

    def test_forecast_charges_whole_batches_ahead(self):
        controller = AdmissionController(
            OverloadPolicy(), batch_size=4, default_service_us=10.0
        )
        # Depth 0 → 1 batch ahead (the request's own).
        assert controller.forecast_complete_us(0.0, 0, 0.0) == pytest.approx(10.0)
        # Depth 7 with batch size 4 → 1 full batch queued + own batch.
        assert controller.forecast_complete_us(0.0, 7, 0.0) == pytest.approx(20.0)
        # A busy accelerator pushes the start time out.
        assert controller.forecast_complete_us(0.0, 0, 30.0) == pytest.approx(40.0)
        # `now` dominates when the accelerator is already free.
        assert controller.forecast_complete_us(50.0, 0, 30.0) == pytest.approx(60.0)

    def test_admits_when_forecast_meets_deadline(self):
        controller = AdmissionController(
            OverloadPolicy(), batch_size=4, default_service_us=10.0
        )
        verdict = controller.decide(_request(slo_us=25.0), 0.0, 0, 0.0)
        assert verdict == ADMIT
        assert controller.admitted_count == 1
        assert controller.shed_count == 0

    def test_sheds_when_forecast_overruns_deadline(self):
        controller = AdmissionController(
            OverloadPolicy(), batch_size=4, default_service_us=10.0
        )
        # 3 batches queued ahead → forecast 40µs against a 25µs deadline.
        verdict = controller.decide(_request(slo_us=25.0), 0.0, 11, 0.0)
        assert verdict == SHED
        assert controller.shed_count == 1
        assert controller.admitted_count == 0

    def test_safety_margin_tightens_the_deadline(self):
        lax = AdmissionController(
            OverloadPolicy(), batch_size=4, default_service_us=10.0
        )
        strict = AdmissionController(
            OverloadPolicy(safety_margin_us=20.0),
            batch_size=4,
            default_service_us=10.0,
        )
        request = _request(slo_us=25.0)
        assert lax.decide(request, 0.0, 4, 0.0) == ADMIT  # forecast 20 ≤ 25
        assert strict.decide(request, 0.0, 4, 0.0) == SHED  # 20 > 25 − 20

    def test_depth_cap_sheds_regardless_of_deadline(self):
        controller = AdmissionController(
            OverloadPolicy(max_queue_depth=8),
            batch_size=4,
            default_service_us=1.0,
        )
        generous = _request(slo_us=1e9)
        assert controller.decide(generous, 0.0, 8, 0.0) == SHED
        assert controller.decide(generous, 0.0, 7, 0.0) == ADMIT

    def test_decisions_are_deterministic(self):
        def run():
            controller = AdmissionController(
                OverloadPolicy(ewma_alpha=0.3), batch_size=4, default_service_us=8.0
            )
            verdicts = []
            for step in range(32):
                verdicts.append(
                    controller.decide(
                        _request(slo_us=25.0), step * 2.0, step % 12, step * 1.5
                    )
                )
                controller.observe(6.0 + (step % 5))
            return verdicts, controller.shed_count, controller.admitted_count

        assert run() == run()
