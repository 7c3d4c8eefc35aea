"""Tests for the Jacobian and Hessian kernels (Fig. 5-c/d)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fixedpoint import Q14_2, Q29_3, ops
from repro.geometry import TUM_QVGA, inverse_depth_coords, se3_exp
from repro.kernels.hessian import (
    SYM_PAIRS,
    hessian_fast,
    hessian_float,
    hessian_pim,
    hessian_pim_naive,
    hessian_reduce_pim,
    reduction_shifts,
    unpack_symmetric,
)
from repro.kernels.jacobian import (
    JacobianRows,
    jacobian_fast,
    jacobian_float,
    jacobian_pim,
    jacobian_pim_naive,
)
from repro.kernels.warp import (
    WarpRows,
    quantize_features,
    quantize_pose,
    warp_fast,
    warp_float,
    warp_pim,
)
from repro.pim import PIMConfig, PIMDevice

CAM = TUM_QVGA


def setup_batch(n=160, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.uniform(30, CAM.width - 30, n)
    v = rng.uniform(30, CAM.height - 30, n)
    d = rng.uniform(1.0, 4.0, n)
    a, b, c = inverse_depth_coords(CAM, u, v, d)
    pose = se3_exp(rng.uniform(-0.02, 0.02, 6))
    grad_u = rng.uniform(-1, 1, n) * CAM.fx
    grad_v = rng.uniform(-1, 1, n) * CAM.fy
    return (a, b, c, d), pose, (grad_u, grad_v)


class TestJacobianFloat:
    def test_matches_numerical_differentiation(self):
        # Perturb the pose along each twist axis and check that the
        # predicted change in warped position, dotted with the gradient,
        # matches the analytic Jacobian.
        (a, b, c, d), pose, (gu, gv) = setup_batch(n=20, seed=1)
        base = warp_float(pose, a, b, c, CAM)
        x, y = base.rx * base.z / c, base.ry * base.z / c
        z = base.z / c
        jac = jacobian_float(x, y, z, gu, gv)
        eps = 1e-6
        for axis in range(6):
            xi = np.zeros(6)
            xi[axis] = eps
            pose2 = se3_exp(xi) @ pose
            pert = warp_float(pose2, a, b, c, CAM)
            # d(residual)/d(xi_axis) = gu/fx * du + gv/fy * dv.
            du = (pert.u - base.u) / eps
            dv = (pert.v - base.v) / eps
            numeric = gu / CAM.fx * du + gv / CAM.fy * dv
            np.testing.assert_allclose(jac[:, axis], numeric,
                                       rtol=1e-3, atol=1e-2)

    def test_zero_gradient_gives_zero_row(self):
        jac = jacobian_float([0.1], [0.2], [2.0], [0.0], [0.0])
        np.testing.assert_allclose(jac, 0.0)


class TestJacobianFast:
    def quantized_inputs(self, seed=2, n=160):
        (a, b, c, d), pose, (gu, gv) = setup_batch(n=n, seed=seed)
        qf = quantize_features(a, b, c)
        qp = quantize_pose(pose)
        warp_q = warp_fast(qp, qf, CAM)
        iu = np.asarray(Q14_2.quantize(gu), dtype=np.int64)
        iv = np.asarray(Q14_2.quantize(gv), dtype=np.int64)
        return (a, b, c, d), pose, (gu, gv), qf, qp, warp_q, iu, iv

    def test_close_to_float_reference(self):
        (a, b, c, d), pose, (gu, gv), qf, qp, warp_q, iu, iv = \
            self.quantized_inputs()
        j_raw = jacobian_fast(warp_q, qf.c, iu, iv)
        ref = warp_float(pose, a, b, c, CAM)
        x, y = ref.rx * ref.z / c, ref.ry * ref.z / c
        z = ref.z / c
        j_float = jacobian_float(x, y, z, gu, gv)
        j_q = Q14_2.to_float(j_raw)
        scale = np.maximum(np.abs(j_float), 20.0)
        rel = np.abs(j_q - j_float) / scale
        assert np.median(rel) < 0.02
        assert rel.max() < 0.25

    def test_device_matches_fast_exactly(self):
        _, pose, _, qf, qp, warp_q, iu, iv = self.quantized_inputs(3)
        cfg = PIMConfig(wordline_bits=2560, num_rows=40)
        dev = PIMDevice(cfg)
        wrows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        warp_pim(dev, qp, qf, CAM, wrows)
        dev.load(10, iu)
        dev.load(11, iv)
        jrows = JacobianRows(rx=6, ry=7, z=5, c=2, iu=10, iv=11, w=12,
                             k=13, j=(14, 15, 16, 17, 18, 19))
        j_dev = jacobian_pim(dev, jrows, 160)
        j_fast = jacobian_fast(warp_q, qf.c, iu, iv)
        np.testing.assert_array_equal(j_dev, j_fast)

    def test_naive_device_close_to_optimized(self):
        _, pose, _, qf, qp, warp_q, iu, iv = self.quantized_inputs(4)
        cfg = PIMConfig(wordline_bits=2560, num_rows=40)
        dev = PIMDevice(cfg)
        wrows = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)
        warp_pim(dev, qp, qf, CAM, wrows)
        dev.load(10, iu)
        dev.load(11, iv)
        jrows = JacobianRows(rx=6, ry=7, z=5, c=2, iu=10, iv=11, w=12,
                             k=13, j=(14, 15, 16, 17, 18, 19))
        snap = dev.ledger.snapshot()
        j_opt = jacobian_pim(dev, jrows, 160)
        opt_cycles = dev.ledger.cycles - snap.cycles
        snap = dev.ledger.snapshot()
        j_naive = jacobian_pim_naive(dev, jrows, 160, x_row=3, y_row=4)
        naive_cycles = dev.ledger.cycles - snap.cycles
        assert naive_cycles > opt_cycles
        # Same quantity up to different rounding points.
        diff = np.abs(Q14_2.to_float(j_opt) - Q14_2.to_float(j_naive))
        scale = np.maximum(np.abs(Q14_2.to_float(j_opt)), 20.0)
        assert np.median(diff / scale) < 0.1


class TestHessian:
    def test_reduction_shifts_cover_all_lanes(self):
        for lanes in (2, 5, 16, 80, 160):
            total = np.arange(1, lanes + 1, dtype=np.int64)
            acc = total.astype(np.int64).copy()
            for s in reduction_shifts(lanes):
                shifted = np.zeros_like(acc)
                shifted[:-s or None] = acc[s:]
                acc = acc + shifted
            assert acc[0] == total.sum()

    def test_unpack_symmetric(self):
        vals = np.arange(21)
        h = unpack_symmetric(vals)
        np.testing.assert_array_equal(h, h.T)
        assert h[0, 0] == 0 and h[0, 5] == 5 and h[1, 1] == 6

    def test_unpack_rejects_bad_length(self):
        with pytest.raises(ValueError):
            unpack_symmetric(np.arange(20))

    def test_fast_close_to_float(self):
        rng = np.random.default_rng(5)
        n = 300
        j = rng.uniform(-300, 300, (n, 6))
        r = rng.uniform(0, 30, n)
        j_raw = np.asarray(Q14_2.quantize(j), dtype=np.int64)
        r_raw = np.asarray(Q14_2.quantize(r), dtype=np.int64)
        h_raw, b_raw = hessian_fast(j_raw, r_raw)
        h_ref, b_ref = hessian_float(j, r)
        h_q = unpack_symmetric(Q29_3.to_float(h_raw))
        b_q = Q29_3.to_float(b_raw)
        np.testing.assert_allclose(h_q, h_ref, rtol=0.01,
                                   atol=np.abs(h_ref).max() * 0.01)
        np.testing.assert_allclose(b_q, b_ref, rtol=0.02,
                                   atol=np.abs(b_ref).max() * 0.02)

    def test_16bit_accumulation_saturates(self):
        # The paper: 16-bit H leads to solver failure. Check the raw
        # accumulator saturates far from the true value.
        rng = np.random.default_rng(6)
        n = 2000
        j = rng.uniform(-300, 300, (n, 6))
        r = rng.uniform(0, 30, n)
        j_raw = np.asarray(Q14_2.quantize(j), dtype=np.int64)
        r_raw = np.asarray(Q14_2.quantize(r), dtype=np.int64)
        h16, _ = hessian_fast(j_raw, r_raw, lanes=160, acc_bits=16)
        h32, _ = hessian_fast(j_raw, r_raw, lanes=80, acc_bits=32)
        # Diagonal entries are huge positive sums: 16-bit clips them.
        diag_idx = [SYM_PAIRS.index((i, i)) for i in range(6)]
        assert np.all(h16[diag_idx] <= (1 << 15) - 1)
        assert np.all(h32[diag_idx] > (1 << 20))

    def test_device_matches_fast_exactly(self):
        rng = np.random.default_rng(7)
        n = 240  # three 80-lane batches
        j = rng.integers(-1200, 1200, (n, 6))
        r = rng.integers(0, 120, n)
        h_fast, b_fast = hessian_fast(j, r, lanes=80)

        cfg = PIMConfig(wordline_bits=2560, num_rows=64)
        dev = PIMDevice(cfg)
        dev.set_precision(32)
        acc_rows = list(range(7, 34))
        for batch in range(3):
            sl = slice(batch * 80, (batch + 1) * 80)
            for i in range(6):
                dev.load(i, j[sl, i])
            dev.load(6, r[sl])
            hessian_pim(dev, list(range(6)), 6, acc_rows,
                        first_batch=(batch == 0))
        raws = hessian_reduce_pim(dev, acc_rows)
        np.testing.assert_array_equal(raws[:21], h_fast)
        np.testing.assert_array_equal(raws[21:], b_fast)

    def test_naive_costs_more_than_optimized(self):
        rng = np.random.default_rng(8)
        j = rng.integers(-1000, 1000, (80, 6))
        r = rng.integers(0, 100, 80)
        cfg = PIMConfig(wordline_bits=2560, num_rows=64)

        dev_opt = PIMDevice(cfg)
        dev_opt.set_precision(32)
        for i in range(6):
            dev_opt.load(i, j[:, i])
        dev_opt.load(6, r)
        hessian_pim(dev_opt, list(range(6)), 6, list(range(7, 34)), True)

        dev_naive = PIMDevice(cfg)
        dev_naive.set_precision(32)
        for i in range(6):
            dev_naive.load(i, j[:, i])
        dev_naive.load(6, r)
        hessian_pim_naive(dev_naive, list(range(6)), 6,
                          list(range(7, 49)), True)
        assert dev_naive.ledger.cycles > dev_opt.ledger.cycles
        # 42 multiplies vs 27.
        ratio = dev_naive.ledger.cycles / dev_opt.ledger.cycles
        assert 1.3 < ratio < 1.8


def sequential_hessian(j, r, lanes, acc_bits):
    """Batch-by-batch saturating accumulation, one add per product row.

    The device's order of operations written out plainly: no prefix
    sums, every add clamped to the accumulator lane.
    """
    lo, hi = -(1 << (acc_bits - 1)), (1 << (acc_bits - 1)) - 1
    pairs = SYM_PAIRS + [(i, 6) for i in range(6)]
    cols = np.column_stack([j, r]).astype(np.int64)
    batches = max(1, -(-len(cols) // lanes))
    acc = np.zeros((27, lanes), dtype=np.int64)
    for batch in range(batches):
        block = np.zeros((lanes, 7), dtype=np.int64)
        rows = cols[batch * lanes:(batch + 1) * lanes]
        block[:len(rows)] = rows
        for idx, (p, q) in enumerate(pairs):
            prod = np.clip((block[:, p] * block[:, q]) >> 1, lo, hi)
            acc[idx] = np.clip(acc[idx] + prod, lo, hi)
    for s in reduction_shifts(lanes):
        shifted = np.zeros_like(acc)
        shifted[:, :-s] = acc[:, s:]
        acc = np.clip(acc + shifted, lo, hi)
    return acc[:21, 0], acc[21:, 0]


def device_hessian(j, r):
    """``hessian_pim`` batch by batch, then ``hessian_reduce_pim``."""
    dev = PIMDevice(PIMConfig(wordline_bits=2560, num_rows=64))
    dev.set_precision(32)
    acc_rows = list(range(7, 34))
    batches = max(1, -(-len(r) // 80))
    for batch in range(batches):
        sl = slice(batch * 80, (batch + 1) * 80)
        for i in range(6):
            dev.load(i, j[sl, i])
        dev.load(6, r[sl])
        hessian_pim(dev, list(range(6)), 6, acc_rows,
                    first_batch=(batch == 0))
    raws = hessian_reduce_pim(dev, acc_rows)
    return raws[:21], raws[21:]


class TestHessianSaturationProperty:
    """``hessian_fast`` equals the sequential saturating sum, also when
    partial sums leave the accumulator range and the prefix sum has to
    hand over to the batch loop."""

    def test_matches_sequential_saturating_sum(self):
        outcomes = []
        limit = (1 << 15) - 1

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(layout=st.sampled_from([(80, 32), (160, 16)]),
               batches=st.integers(1, 8),
               fill=st.floats(0.01, 1.0),
               magnitude=st.sampled_from([1 << 7, 1 << 11, limit]),
               positive=st.booleans(),
               seed=st.integers(0, 2 ** 32 - 1))
        def check(layout, batches, fill, magnitude, positive, seed):
            lanes, acc_bits = layout
            n = (batches - 1) * lanes + max(1, round(fill * lanes))
            rng = np.random.default_rng(seed)
            low = 0 if positive else -magnitude
            j = rng.integers(low, magnitude + 1, (n, 6))
            r = rng.integers(low, magnitude + 1, n)
            with mock.patch.object(ops, "sat_add",
                                   wraps=ops.sat_add) as spy:
                h, b = hessian_fast(j, r, lanes=lanes, acc_bits=acc_bits)
            # Without the resume loop only the reduction tree adds.
            outcomes.append(spy.call_count > len(reduction_shifts(lanes)))
            h_ref, b_ref = sequential_hessian(j, r, lanes, acc_bits)
            np.testing.assert_array_equal(h, h_ref)
            np.testing.assert_array_equal(b, b_ref)
            if acc_bits == 32:
                h_dev, b_dev = device_hessian(j, r)
                np.testing.assert_array_equal(h_dev, h)
                np.testing.assert_array_equal(b_dev, b)

        check()
        assert any(outcomes), "the overflow-resume branch never ran"
        assert not all(outcomes), "the prefix-sum branch never ran"
