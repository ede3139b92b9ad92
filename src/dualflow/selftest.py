"""Built-in invariant suite and its brute-force oracles.

The oracles here recompute results from first principles — O(n²) pairwise
comparisons for ranking, exhaustive threshold enumeration for region curves,
breadth-first flood fill for components, finite differences for gradients and
Jacobians, tap-by-tap loops for the 3x3 convolutions — and share no kernels
with the production code they check. The test suite imports them too, so
there is exactly one canonical oracle per quantity.

``run_selftest`` prints one ``ok <name>`` / ``FAIL <name>: <detail>`` line
per check and returns True only if every check passed.
"""

from __future__ import annotations

import collections
import time

import numpy as np

from . import autodiff as ad
from .attention import _multi_head
from .autodiff import Tape, Tensor, reset_grads, using_dtype
from .encoder import _conv3x3_s2
from .flow import FlowConfig, FlowStack
from .metrics import au_pro, auroc, connected_components, region_overlap_curve, spro

# ---------------------------------------------------------------------------
# oracles


def auroc_bruteforce(scores, labels) -> float:
    """Mean pairwise win rate of positives over negatives, ties half."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0
    ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return ((2 * wins + ties) / 2.0) / (pos.size * neg.size)


def connected_components_bfs(mask: np.ndarray) -> list:
    """8-connected regions via breadth-first search, same output contract as
    ``metrics.connected_components`` (sorted coords, row-major first pixel)."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    regions = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            queue = collections.deque([(y, x)])
            seen[y, x] = True
            coords = []
            while queue:
                cy, cx = queue.popleft()
                coords.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((ny, nx))
            regions.append(np.array(sorted(coords), dtype=np.int64))
    return regions


def region_curve_bruteforce(maps, masks, saturations=None):
    """Exhaustive threshold sweep. For every distinct score value t (treating
    ``score >= t`` as positive, highest first) compute the global FPR and the
    mean over regions of min(overlap / saturation·area, 1). Returns
    (fprs, vals) with the implicit (0, 0) point prepended."""
    if saturations is None:
        saturations = [1.0] * len(maps)
    regions = []  # (flat positions in the pooled array, saturated area)
    offset = 0
    pooled_scores = []
    pooled_normal = []
    for amap, mask, sat in zip(maps, masks, saturations):
        amap = np.asarray(amap, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        for coords in connected_components_bfs(mask):
            flat = coords[:, 0] * mask.shape[1] + coords[:, 1] + offset
            regions.append((set(flat.tolist()), len(flat) * float(sat)))
        pooled_scores.append(amap.reshape(-1))
        pooled_normal.append(~mask.reshape(-1))
        offset += mask.size
    scores = np.concatenate(pooled_scores)
    normal = np.concatenate(pooled_normal)
    n_neg = int(normal.sum())
    thresholds = np.unique(scores)[::-1]
    fprs = [0.0]
    vals = [0.0]
    for t in thresholds:
        hit = scores >= t
        fprs.append(float((hit & normal).sum()) / n_neg)
        total = 0.0
        for flat, sat_area in regions:
            tp = sum(1 for i in flat if hit[i])
            total += min(tp / sat_area, 1.0)
        vals.append(total / len(regions))
    return np.array(fprs), np.array(vals)


def area_bruteforce(fprs, vals, limit: float) -> float:
    """Trapezoid area under the (fprs, vals) polyline on [0, limit], crossing
    segment interpolated, normalized by the limit."""
    area = 0.0
    for k in range(1, len(fprs)):
        f0, f1, v0, v1 = fprs[k - 1], fprs[k], vals[k - 1], vals[k]
        if f1 <= limit:
            area += (f1 - f0) * (v0 + v1) * 0.5
        else:
            if f0 < limit:
                v_lim = v0 + (v1 - v0) * (limit - f0) / (f1 - f0)
                area += (limit - f0) * (v0 + v_lim) * 0.5
            break
    return area / limit


def au_pro_bruteforce(maps, masks, fpr_limit: float = 0.3) -> float:
    return area_bruteforce(*region_curve_bruteforce(maps, masks), fpr_limit)


def spro_bruteforce(maps, masks, saturations, fpr_limit: float = 0.3) -> float:
    return area_bruteforce(*region_curve_bruteforce(maps, masks, saturations), fpr_limit)


def numeric_jacobian(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Dense Jacobian of ``fn`` (flat ndarray -> flat ndarray) by central
    differences, one column per input entry."""
    y0 = fn(x)
    jac = np.zeros((y0.size, x.size))
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += eps
        lo[i] -= eps
        jac[:, i] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return jac


def finite_difference_grads(f, params, eps: float = 1e-6) -> list[np.ndarray]:
    """Central-difference gradients of the scalar ``f()``, a Tensor or a
    float that ``f`` rebuilds on every call: ``numeric_jacobian`` over one
    parameter's entries at a time, each ``p.data`` rebound to the perturbed
    copies and then to its own array again."""
    grads = []
    for p in params:
        data = p.data

        def value(flat):
            p.data = flat.reshape(data.shape)
            out = f()
            return np.array([out.item() if isinstance(out, Tensor) else float(out)])

        try:
            grads.append(numeric_jacobian(value, data.reshape(-1), eps).reshape(data.shape))
        finally:
            p.data = data
    return grads


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-12)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def check_gradients(f, params, eps: float = 1e-6) -> float:
    """Worst relative error between tape gradients and central differences,
    taken over all entries of all ``params``; NaN if any error is NaN."""
    reset_grads(params)
    with Tape() as tape:
        tape.backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    numeric = finite_difference_grads(f, params, eps)
    worst = float(np.max([max_rel_error(a, n) for a, n in zip(analytic, numeric)], initial=0.0))
    reset_grads(params)
    return worst


def dw3x3_loop(xd: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """Depthwise 3x3 'same' convolution of a channels-last map, (..., H, W,
    C) with a (3, 3, C) kernel: the nine kernel-weighted shifts of the
    ``np.pad``-ed map added one tap at a time, in row-major kernel order, to
    a zero start."""
    h, w = xd.shape[-3], xd.shape[-2]
    xp = np.pad(xd, [(0, 0)] * (xd.ndim - 3) + [(1, 1), (1, 1), (0, 0)])
    out = np.zeros_like(xd)
    for dy in range(3):
        for dx in range(3):
            out += kd[dy, dx] * xp[..., dy:dy + h, dx:dx + w, :]
    return out


def dw3x3_kernel_grad_loop(xd: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The kernel gradient of ``dw3x3_loop`` for output gradient ``g``, one
    tap at a time: ``g`` times the tap's shift of the ``np.pad``-ed map,
    summed over every axis but the channels."""
    h, w = xd.shape[-3], xd.shape[-2]
    xp = np.pad(xd, [(0, 0)] * (xd.ndim - 3) + [(1, 1), (1, 1), (0, 0)])
    axes = tuple(range(xd.ndim - 1))
    return np.stack([(g * xp[..., dy:dy + h, dx:dx + w, :]).sum(axis=axes)
                     for dy in range(3) for dx in range(3)]).reshape((3, 3, xd.shape[-1]))


def conv3x3_s2_loop(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-2 3x3 convolution with zero padding 1 of an (H, W, Cin) map,
    (3, 3, Cin, Cout) weights: the bias, then one ``np.tensordot`` per tap
    added one tap at a time, in row-major kernel order."""
    ho, wo = x.shape[0] // 2, x.shape[1] // 2
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.broadcast_to(b, (ho, wo, w.shape[-1])).copy()
    for dy in range(3):
        for dx in range(3):
            patch = xp[dy:dy + 2 * ho - 1:2, dx:dx + 2 * wo - 1:2, :]
            out += np.tensordot(patch, w[dy, dx], axes=([-1], [0]))
    return out


# ---------------------------------------------------------------------------
# checks


def _perturbed_stack(channels: int, rng, scale: float = 0.1) -> FlowStack:
    """Default-config stack with randomized (non-identity) weights at the
    conditioning of a typical trained stack."""
    stack = FlowStack(channels, FlowConfig(), rng)
    for p in stack.params().values():
        p.data = p.data + rng.normal(0.0, scale, size=p.data.shape)
    mean = rng.normal(0.0, 0.5, size=channels)
    std = rng.uniform(0.5, 2.0, size=channels)
    stack.standardize.set_stats(mean, std)
    return stack


def check_flow_roundtrip() -> tuple[bool, str]:
    """inverse(forward(u)) == u on 100 random inputs, f64 and f32."""
    worst = {}
    for dtype, tol in ((np.float64, 1e-10), (np.float32, 1e-5)):
        with using_dtype(dtype):
            rng = np.random.default_rng(7)
            stack = _perturbed_stack(12, rng)
            u = Tensor(rng.normal(size=(100, 3, 3, 12)))
            z, _ = stack.forward(u)
            back = stack.inverse(z)
            err = float(np.abs(back.data - u.data).max())
            worst[dtype.__name__] = err
            if err >= tol:
                return False, f"{dtype.__name__} round-trip error {err:.3e} >= {tol}"
    return True, (f"f64 {worst['float64']:.1e}, f32 {worst['float32']:.1e}")


def check_flow_logdet() -> tuple[bool, str]:
    """Analytic log-det vs the numerically assembled Jacobian (32 dims)."""
    with using_dtype(np.float64):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            stack = _perturbed_stack(8, rng)
            u0 = rng.normal(size=(1, 2, 2, 8))

            def fwd(flat: np.ndarray) -> np.ndarray:
                z, _ = stack.forward(Tensor(flat.reshape(u0.shape)))
                return z.data.reshape(-1)

            _, fields = stack.forward(Tensor(u0))
            logdet = stack.log_det(fields)
            sign, num = np.linalg.slogdet(numeric_jacobian(fwd, u0.reshape(-1)))
            if sign <= 0:
                return False, f"seed {seed}: numeric Jacobian not orientation-preserving"
            rel = abs(float(logdet.data[0]) - num) / max(abs(num), 1e-12)
            if rel >= 1e-3:
                return False, f"seed {seed}: log-det rel err {rel:.3e} >= 1e-3"
    return True, "5 seeds < 1e-3"


def check_gradcheck() -> tuple[bool, str]:
    """Finite-difference check of a composite touching every primitive family:
    conv subnet, coupling layer, the two-head attention op ``_multi_head``
    (one sequence, and a batch of two; its key and value are one tensor),
    layer norm."""
    with using_dtype(np.float64):
        rng = np.random.default_rng(3)
        stack = _perturbed_stack(6, rng)
        u = Tensor(rng.normal(size=(2, 2, 2, 6)))

        def flow_loss():
            z, fields = stack.forward(u)
            nll = ad.sub(ad.mul(ad.sum_all(ad.mul(z, z)), 0.5),
                         ad.sum_all(stack.log_det(fields)))
            return ad.mul(nll, 1.0 / u.shape[0])

        params = list(stack.params().values())
        worst = check_gradients(flow_loss, params)

        w_q = Tensor(rng.normal(0, 0.3, size=(6, 6)), requires_grad=True)
        gain = Tensor(np.ones(6), requires_grad=True)
        bias = Tensor(np.zeros(6), requires_grad=True)
        for x in (Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(2, 4, 6)))):

            def attn_loss():
                h = ad.layer_norm(x, gain, bias)
                out = _multi_head(ad.linear(h, w_q, np.zeros(6)), h, h, heads=2)
                return ad.sum_all(ad.mul(ad.gelu(out), out))

            worst = np.maximum(worst, check_gradients(attn_loss, [w_q, gain, bias]))
        if not worst < 1e-4:
            return False, f"worst rel err {worst:.3e} >= 1e-4"
    return True, f"worst rel err {worst:.1e}"


def _metric_instances(rng):
    """Handful of small map/mask instances with deliberate score ties."""
    cases = []
    for _ in range(6):
        amap = rng.integers(0, 12, size=(8, 8)) / 8.0
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:4] = True
        mask[5:7, 5:8] = rng.random((2, 3)) < 0.8
        if not mask[5:7, 5:8].any():
            mask[6, 6] = True
        cases.append(([amap], [mask]))
    perfect = np.zeros((8, 8))
    pmask = np.zeros((8, 8), dtype=bool)
    pmask[2:5, 2:5] = True
    perfect[pmask] = 1.0
    cases.append(([perfect], [pmask]))
    const = (np.zeros((8, 8)), pmask)
    cases.append(([const[0]], [const[1]]))
    return cases


def check_metric_oracles() -> tuple[bool, str]:
    """Production metrics vs the brute-force oracles, exact equality."""
    if auroc([0.9, 0.1], [1, 0]) != 1.0:
        return False, "perfect-separation AUROC != 1"
    if auroc([0.5, 0.5, 0.5], [1, 0, 1]) != 0.5:
        return False, "all-ties AUROC != 0.5"
    if auroc([0.8, 0.4, 0.6, 0.2], [1, 0, 0, 1]) != 0.5:
        return False, "mixed-pairs AUROC != 0.5"
    rng = np.random.default_rng(11)
    for trial in range(20):
        scores = rng.integers(0, 10, size=24) / 16.0
        labels = rng.integers(0, 2, size=24)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a, b = auroc(scores, labels), auroc_bruteforce(scores, labels)
        if a != b:
            return False, f"AUROC trial {trial}: {a!r} != oracle {b!r}"
    for idx, (maps, masks) in enumerate(_metric_instances(rng)):
        f_p, v_p = region_overlap_curve(maps, masks)
        f_o, v_o = region_curve_bruteforce(maps, masks)
        if not (np.array_equal(f_p, f_o) and np.array_equal(v_p, v_o)):
            return False, f"region curve instance {idx} differs from sweep oracle"
        if au_pro(maps, masks) != au_pro_bruteforce(maps, masks):
            return False, f"au_pro instance {idx} differs from sweep oracle"
        sats = [0.5] * len(maps)
        if spro(maps, masks, sats) != spro_bruteforce(maps, masks, sats):
            return False, f"spro instance {idx} differs from sweep oracle"
        for m in masks:
            prod = connected_components(m)
            orac = connected_components_bfs(m)
            if len(prod) != len(orac) or any(
                    not np.array_equal(p, o) for p, o in zip(prod, orac)):
                return False, f"components instance {idx} differ from BFS oracle"
    return True, "20 ranking + 8 region instances exact"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    uint = np.dtype(f"u{a.dtype.itemsize}")
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(uint), b.view(uint))


# the flows' depthwise maps: batch 1 and 8, one-channel subnets included,
# one of them summing more than 128 rows; in float32 and in float64 they fall
# on both sides of ``autodiff._TAP_BUDGET``
DW_SHAPES = ((1, 16, 16, 24), (8, 16, 16, 24), (1, 8, 8, 48), (8, 4, 4, 96),
             (7, 9, 4), (2, 5, 6, 1), (8, 16, 16, 1))


def check_conv_taps() -> tuple[bool, str]:
    """The 3x3 convolutions and the depthwise conv's row-pass kernel
    gradient against their tap-by-tap loops, bit for bit: a numpy or BLAS
    upgrade could change the summation orders that
    ``autodiff._dw3x3_forward`` (in both its forms) and
    ``autodiff._dw3x3_vjp`` state, or the stride-2 conv's GEMMs. Shapes are
    the flows' (``DW_SHAPES``) and the encoder's, default and small; inputs
    carry zeros, -0.0 and denormals."""
    rng = np.random.default_rng(29)

    def sample(shape, dtype):
        x = rng.normal(size=shape).astype(dtype)
        flat = x.reshape(-1)
        tiny = np.finfo(dtype).smallest_subnormal
        flat[rng.choice(flat.size, size=4, replace=False)] = [0.0, -0.0, tiny, -tiny]
        return x

    n = n_gk = 0
    for dtype in (np.float32, np.float64):
        for shape in DW_SHAPES:
            x, k = sample(shape, dtype), sample((3, 3, shape[-1]), dtype)
            for kernel in (k, k[::-1, ::-1]):  # the forward's and the input gradient's
                n += 1
                if not _same_bits(ad._dw3x3_forward(x, kernel), dw3x3_loop(x, kernel)):
                    return False, f"depthwise {shape} {dtype.__name__} differs from the tap loop"
            g = sample(shape, dtype)
            n_gk += 1
            if not _same_bits(ad._dw3x3_vjp(g, x, k)[1], dw3x3_kernel_grad_loop(x, g)):
                return False, f"depthwise kernel gradient {shape} {dtype.__name__} " \
                              "differs from the tap loop"
        for size, cin, cout in ((64, 3, 16), (32, 16, 16), (16, 16, 32), (8, 32, 64),
                                (32, 3, 4), (16, 4, 4), (8, 4, 6), (4, 6, 8)):
            x = sample((size, size, cin), dtype)
            w, b = sample((3, 3, cin, cout), dtype), sample((cout,), dtype)
            n += 1
            if not _same_bits(_conv3x3_s2(x, w, b), conv3x3_s2_loop(x, w, b)):
                return False, f"stride-2 conv {(size, size, cin, cout)} {dtype.__name__} " \
                              "differs from the tap loop"
    return True, f"{n} convolutions and {n_gk} kernel gradients bit-equal"


CHECKS = (
    ("flow_roundtrip", check_flow_roundtrip),
    ("flow_logdet", check_flow_logdet),
    ("gradcheck", check_gradcheck),
    ("metric_oracles", check_metric_oracles),
    ("conv_taps", check_conv_taps),
)


def run_selftest(write=print) -> bool:
    """Run every check; report one line each; True iff all passed."""
    all_ok = True
    for name, check in CHECKS:
        t0 = time.time()
        try:
            ok, detail = check()
        except Exception as exc:  # surface, never swallow
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        status = "ok" if ok else "FAIL"
        write(f"{status} {name} ({time.time() - t0:.1f}s): {detail}")
    return all_ok
