"""The warp kernel: quantized feature warping (paper Fig. 5-a/b).

A feature anchored in the current frame at pixel ``(u, v)`` with depth
``d`` is stored as the inverse-depth triple ``(a, b, c)`` quantized to
Q4.12.  Warping into the keyframe applies the relative pose (rotation
``R`` and translation ``T``, entries quantized to Q1.15):

``(X, Y, Z) = R (a, b, 1)^T + T c``  (all Q4.12)

followed by the projective division ``rx = X / Z``, ``ry = Y / Z``
(restoring division, Q4.12) and the intrinsic mapping
``u' = fx rx + cx`` (fx in Q10.6, u' in Q14.2 -> quarter-pixel
resolution).  The scaled coordinates are exact up to quantization
because projection cancels the missing depth factor.

All fast functions use precisely the PIM op sequence (same saturation
points, same shift amounts) so the tracker's numerics equal the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.fixedpoint import Q1_15, Q4_12, Q14_2, QFormat, ops
from repro.geometry.camera import CameraIntrinsics
from repro.geometry.se3 import SE3
from repro.obs.tracer import span as obs_span
from repro.pim.device import TMP, Imm, Rel
from repro.pim.program import PIMProgram, ProgramRecorder

__all__ = [
    "FEATURE_FORMAT", "POSE_FORMAT", "UV_FORMAT", "INTRINSIC_FORMAT",
    "QuantizedFeatures", "QuantizedPose", "WarpResult", "WarpRows",
    "quantize_features", "quantize_pose", "qdiv_lanes",
    "warp_float", "warp_fast", "warp_pim", "warp_program",
    "warp_pim_batched", "WARP_BLOCK_ROWS",
]


def qdiv_lanes(a_raw, b_raw, lshift: int = 0,
               bits: int = 16) -> np.ndarray:
    """``(a << lshift) / b`` with exact PIM divide semantics.

    Mirrors :meth:`repro.pim.device.PIMDevice.div`: restoring-division
    truncation toward zero, division by zero saturating toward the
    signed lane bound (``+-(2**(bits-1) - 1)``), result saturated to
    the lane.
    """
    va = np.asarray(a_raw, dtype=np.int64) << lshift
    vb = np.asarray(b_raw, dtype=np.int64)
    q = ops.divide(va, vb, 63)
    lane_hi = (1 << (bits - 1)) - 1
    q = np.where(vb == 0, np.where(va >= 0, lane_hi, -lane_hi), q)
    return ops.saturate(q, bits)

#: Inverse-depth feature coordinates (paper section 3.3).
FEATURE_FORMAT = Q4_12
#: Rotation/translation entries (paper section 3.3).
POSE_FORMAT = Q1_15
#: Warped pixel coordinates (quarter-pixel resolution).
UV_FORMAT = Q14_2
#: Camera focal lengths.
INTRINSIC_FORMAT = QFormat(10, 6)

_LANE_BITS = 16


@dataclass
class QuantizedFeatures:
    """A batch of features in quantized inverse-depth coordinates."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    fmt: QFormat = FEATURE_FORMAT

    def __len__(self) -> int:
        return int(np.asarray(self.a).size)


@dataclass
class QuantizedPose:
    """Rotation and translation raws in Q1.15."""

    r: np.ndarray  # 3x3 int raws
    t: np.ndarray  # 3 int raws

    @property
    def r_float(self) -> np.ndarray:
        return POSE_FORMAT.to_float(self.r)

    @property
    def t_float(self) -> np.ndarray:
        return POSE_FORMAT.to_float(self.t)


@dataclass
class WarpResult:
    """Output of the warp kernel (raw integers unless noted)."""

    u: np.ndarray        # warped column, UV_FORMAT
    v: np.ndarray        # warped row, UV_FORMAT
    rx: np.ndarray       # X/Z, feature format
    ry: np.ndarray       # Y/Z, feature format
    z: np.ndarray        # scaled depth Z~, feature format
    valid: np.ndarray    # bool

    def uv_float(self) -> tuple:
        """Warped coordinates in pixels (float)."""
        return UV_FORMAT.to_float(self.u), UV_FORMAT.to_float(self.v)


def quantize_features(a, b, c, fmt: QFormat = FEATURE_FORMAT
                      ) -> QuantizedFeatures:
    """Quantize float inverse-depth coordinates to raw integers."""
    return QuantizedFeatures(
        a=np.asarray(fmt.quantize(a), dtype=np.int64).reshape(-1),
        b=np.asarray(fmt.quantize(b), dtype=np.int64).reshape(-1),
        c=np.asarray(fmt.quantize(c), dtype=np.int64).reshape(-1),
        fmt=fmt)


def quantize_pose(pose: SE3) -> QuantizedPose:
    """Quantize a relative pose to Q1.15 raws.

    Entries are saturated to the (-1, 1) range; the paper relies on the
    inter-frame pose being small, which the keyframe policy enforces.
    """
    return QuantizedPose(
        r=np.asarray(POSE_FORMAT.quantize(pose.R), dtype=np.int64),
        t=np.asarray(POSE_FORMAT.quantize(pose.t), dtype=np.int64))


def warp_float(pose: SE3, a, b, c, camera: CameraIntrinsics) -> WarpResult:
    """Float reference of the warp (same output fields, float values)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    r, t = pose.R, pose.t
    x = r[0, 0] * a + r[0, 1] * b + r[0, 2] + t[0] * c
    y = r[1, 0] * a + r[1, 1] * b + r[1, 2] + t[1] * c
    z = r[2, 0] * a + r[2, 1] * b + r[2, 2] + t[2] * c
    safe_z = np.where(np.abs(z) < 1e-12, 1e-12, z)
    rx, ry = x / safe_z, y / safe_z
    u = camera.fx * rx + camera.cx
    v = camera.fy * ry + camera.cy
    valid = (z > 1e-6) & (u >= 0) & (u <= camera.width - 1) & \
        (v >= 0) & (v <= camera.height - 1)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)


@lru_cache(maxsize=16)
def _intrinsic_raws(camera: CameraIntrinsics) -> tuple:
    """``(fx, fy, cx, cy)`` raws: focal lengths in Q10.6, principal
    point in the warped-coordinate format."""
    return (int(INTRINSIC_FORMAT.quantize(camera.fx)),
            int(INTRINSIC_FORMAT.quantize(camera.fy)),
            int(UV_FORMAT.quantize(camera.cx)),
            int(UV_FORMAT.quantize(camera.cy)))


def _mac_rows(qpose: QuantizedPose, feats: QuantizedFeatures
              ) -> np.ndarray:
    """The rows of ``R (a, b, 1) + T c`` with PIM op order and saturation.

    Row ``i`` is ``sat(sat(sat(ri0 a + ri1 b) + ri2') + ti c)`` where
    every product is ``(Q1.15 x Q4.f) >> 15`` and
    ``ri2' = ri2 >> (15 - f)``; all three rows form one ``(3, N)`` pass.
    """
    f = feats.fmt.fraction_bits
    r = np.asarray(qpose.r, dtype=np.int64)
    t = np.asarray(qpose.t, dtype=np.int64)
    if not len(feats):
        # An empty batch multiplies no lanes, so no operand is range
        # checked (the coefficients alone would be below).
        return np.zeros((3, 0), dtype=np.int64)

    def product(coeff, values) -> np.ndarray:
        return ops.saturate(ops.multiply(coeff[:, None], values,
                                         _LANE_BITS) >> 15, _LANE_BITS)

    acc = ops.sat_add(product(r[:, 0], feats.a), product(r[:, 1], feats.b),
                      _LANE_BITS)
    acc = ops.sat_add(acc, (r[:, 2] >> (15 - f))[:, None], _LANE_BITS)
    return ops.sat_add(acc, product(t, feats.c), _LANE_BITS)


def warp_fast(qpose: QuantizedPose, feats: QuantizedFeatures,
              camera: CameraIntrinsics) -> WarpResult:
    """Quantized warp with exact PIM arithmetic (vectorized).

    X and Y go through the division and the intrinsic mapping as one
    ``(2, N)`` pass; lanes never interact, so this equals doing the
    rows one at a time.
    """
    f = feats.fmt.fraction_bits
    xyz = _mac_rows(qpose, feats)
    z = xyz[2]
    rx, ry = rxy = qdiv_lanes(xyz[:2], z, lshift=f)
    fx_q, fy_q, cx_q, cy_q = _intrinsic_raws(camera)
    shift = INTRINSIC_FORMAT.fraction_bits + f - UV_FORMAT.fraction_bits
    focal = np.array([[fx_q], [fy_q]], dtype=np.int64)
    centre = np.array([[cx_q], [cy_q]], dtype=np.int64)
    u, v = ops.sat_add(
        ops.saturate(ops.multiply(focal, rxy, 32) >> shift, _LANE_BITS),
        centre, _LANE_BITS)
    scale = UV_FORMAT.scale
    valid = (z > 0) & (u >= 0) & (u <= (camera.width - 1) * scale) & \
        (v >= 0) & (v <= (camera.height - 1) * scale)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)


@dataclass
class WarpRows:
    """Row allocation of one warp batch inside the PIM array."""

    a: int
    b: int
    c: int
    x: int
    y: int
    z: int
    rx: int
    ry: int
    u: int
    v: int


def warp_pim(device, qpose: QuantizedPose, feats: QuantizedFeatures,
             camera: CameraIntrinsics, rows: WarpRows) -> WarpResult:
    """Device program for one batch of (up to) 160 features.

    The features are DMA-loaded into ``rows.a/b/c``; the warped
    quantities are produced with the same arithmetic as
    :func:`warp_fast` and read back.  Counts 11 multiplies, 2 divides
    and the accumulating adds on the ledger.
    """
    if len(feats) > device.config.lanes(_LANE_BITS):
        raise ValueError("batch exceeds 16-bit lane count")
    device.set_precision(_LANE_BITS)
    f = feats.fmt.fraction_bits
    device.load(rows.a, feats.a)
    device.load(rows.b, feats.b)
    device.load(rows.c, feats.c)

    for axis, dst in ((0, rows.x), (1, rows.y), (2, rows.z)):
        r0, r1, r2 = (int(v) for v in qpose.r[axis])
        t_raw = int(qpose.t[axis])
        device.mul(TMP, rows.a, Imm(r0), rshift=15)
        device.copy(dst, TMP)
        device.mul(TMP, rows.b, Imm(r1), rshift=15)
        device.add(dst, dst, TMP, saturate=True)
        device.add(dst, dst, Imm(r2 >> (15 - f)), saturate=True)
        device.mul(TMP, rows.c, Imm(t_raw), rshift=15)
        device.add(dst, dst, TMP, saturate=True)

    device.div(rows.rx, rows.x, rows.z, lshift=f)
    device.div(rows.ry, rows.y, rows.z, lshift=f)

    fx_q, fy_q, cx_q, cy_q = _intrinsic_raws(camera)
    shift = INTRINSIC_FORMAT.fraction_bits + f - UV_FORMAT.fraction_bits
    device.mul(TMP, rows.rx, Imm(fx_q), rshift=shift)
    device.add(rows.u, TMP, Imm(cx_q), saturate=True)
    device.mul(TMP, rows.ry, Imm(fy_q), rshift=shift)
    device.add(rows.v, TMP, Imm(cy_q), saturate=True)

    n = len(feats)
    u = device.store(rows.u)[:n]
    v = device.store(rows.v)[:n]
    rx = device.store(rows.rx)[:n]
    ry = device.store(rows.ry)[:n]
    z = device.store(rows.z)[:n]
    scale = UV_FORMAT.scale
    valid = (z > 0) & (u >= 0) & (u <= (camera.width - 1) * scale) & \
        (v >= 0) & (v <= (camera.height - 1) * scale)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)


#: Rows occupied by one feature block in the batched warp layout
#: (a, b, c, x, y, z, rx, ry, u, v at offsets 0..9).
WARP_BLOCK_ROWS = 10

#: Relative row offsets within one block, mirroring :class:`WarpRows`.
_W = WarpRows(a=0, b=1, c=2, x=3, y=4, z=5, rx=6, ry=7, u=8, v=9)


def warp_program(qpose: QuantizedPose, fraction_bits: int,
                 camera: CameraIntrinsics, config) -> PIMProgram:
    """Record the warp compute body for one feature block.

    The body is the exact op sequence of :func:`warp_pim` between the
    feature DMA-in and the result DMA-out, with every block row
    expressed relative to the block base (offsets per :data:`_W`).
    The pose and camera constants are baked in as immediates, so the
    program is recorded per pose; its win is replaying one recording
    across all blocks of a feature set.

    Block footprints are :data:`WARP_BLOCK_ROWS` rows wide, so bases
    strided that far apart replay vectorized (disjoint footprints)
    even though the body's relative op order alone is not batchable.
    """
    rec = ProgramRecorder(config, name="warp")
    rec.set_precision(_LANE_BITS)
    f = fraction_bits
    for axis, dst in ((0, _W.x), (1, _W.y), (2, _W.z)):
        r0, r1, r2 = (int(v) for v in qpose.r[axis])
        t_raw = int(qpose.t[axis])
        rec.mul(TMP, Rel(_W.a), Imm(r0), rshift=15)
        rec.copy(Rel(dst), TMP)
        rec.mul(TMP, Rel(_W.b), Imm(r1), rshift=15)
        rec.add(Rel(dst), Rel(dst), TMP, saturate=True)
        rec.add(Rel(dst), Rel(dst), Imm(r2 >> (15 - f)), saturate=True)
        rec.mul(TMP, Rel(_W.c), Imm(t_raw), rshift=15)
        rec.add(Rel(dst), Rel(dst), TMP, saturate=True)

    rec.div(Rel(_W.rx), Rel(_W.x), Rel(_W.z), lshift=f)
    rec.div(Rel(_W.ry), Rel(_W.y), Rel(_W.z), lshift=f)

    fx_q, fy_q, cx_q, cy_q = _intrinsic_raws(camera)
    shift = INTRINSIC_FORMAT.fraction_bits + f - UV_FORMAT.fraction_bits
    rec.mul(TMP, Rel(_W.rx), Imm(fx_q), rshift=shift)
    rec.add(Rel(_W.u), TMP, Imm(cx_q), saturate=True)
    rec.mul(TMP, Rel(_W.ry), Imm(fy_q), rshift=shift)
    rec.add(Rel(_W.v), TMP, Imm(cy_q), saturate=True)
    return rec.finish()


def warp_pim_batched(device, qpose: QuantizedPose,
                     feats: QuantizedFeatures, camera: CameraIntrinsics,
                     base_row: int = 0,
                     mode: str = "auto") -> WarpResult:
    """Warp an arbitrary-size feature set through one program replay.

    Features are split into blocks of up to 160 (the 16-bit lane
    count); each block occupies :data:`WARP_BLOCK_ROWS` consecutive
    rows starting at ``base_row + block * WARP_BLOCK_ROWS``.  The
    compute body is recorded once and replayed across all block bases,
    vectorized; outputs and ledger totals are identical to looping
    :func:`warp_pim` over the blocks.  ``mode`` (``"auto"``: the
    compiled plan, or ``"eager"``) is forwarded to
    :meth:`~repro.pim.device.PIMDevice.run_program`.
    """
    lanes = device.config.lanes(_LANE_BITS)
    n = len(feats)
    num_blocks = max(1, -(-n // lanes))
    if base_row + num_blocks * WARP_BLOCK_ROWS > device.config.num_rows:
        raise ValueError(
            f"{num_blocks} warp blocks do not fit the array")
    device.set_precision(_LANE_BITS)
    bases = [base_row + k * WARP_BLOCK_ROWS for k in range(num_blocks)]

    def blocks_of(vals: np.ndarray) -> np.ndarray:
        full = np.zeros((num_blocks, lanes), dtype=np.int64)
        full.reshape(-1)[:n] = np.asarray(vals, dtype=np.int64).reshape(-1)
        return full

    for offset, vals in ((_W.a, feats.a), (_W.b, feats.b),
                         (_W.c, feats.c)):
        device.load_rows([b + offset for b in bases], blocks_of(vals))

    program = warp_program(qpose, feats.fmt.fraction_bits, camera,
                           device.config)
    with obs_span("warp", device=device, category="kernel",
                  features=n, blocks=num_blocks):
        device.run_program(program, bases, mode=mode)

    def collect(offset: int) -> np.ndarray:
        block = device.store_rows([b + offset for b in bases])
        return block.reshape(-1)[:n]

    u, v = collect(_W.u), collect(_W.v)
    rx, ry, z = collect(_W.rx), collect(_W.ry), collect(_W.z)
    scale = UV_FORMAT.scale
    valid = (z > 0) & (u >= 0) & (u <= (camera.width - 1) * scale) & \
        (v >= 0) & (v <= (camera.height - 1) * scale)
    return WarpResult(u=u, v=v, rx=rx, ry=ry, z=z, valid=valid)
