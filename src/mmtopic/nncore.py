"""Dense neural substrate: activations, the encoder network, the
logistic-normal Dirichlet prior approximation and the closed-form KL to it,
Adam, a finite-difference gradient checker, and the BLAS thread pin.

Everything runs in float64 on plain numpy arrays. Parameter sets are flat
dicts of named arrays so the optimizer and the gradient checker can treat
every model uniformly (``models.param_shapes`` lists each kind's blocks);
gradients come back as dicts keyed like the parameters. Gradients are
written by hand throughout the package; :func:`gradcheck` is the contract
that keeps them honest.

A matrix product split across OpenBLAS threads sums in an order that
depends on the thread count, so :data:`one_blas_thread` runs training and
inference on one thread to keep their bits independent of the environment.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import operator
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


def _softplus_parts(pre: np.ndarray):
    """log(1 + exp(pre)) as max(pre, 0) + log1p(e) with e = exp(-|pre|),
    overflow-safe with one ``exp``; returns it and e. Overwrites ``pre``
    with max(pre, 0) and allocates only the two results."""
    e = np.abs(pre, out=np.empty_like(pre))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.log1p(e)
    out += np.maximum(pre, 0.0, out=pre)
    return out, e


def softplus(x):
    """log(1 + exp(x)), overflow-safe for large positive inputs."""
    return _softplus_parts(np.array(x, dtype=np.float64))[0]


def softmax(x, axis=-1):
    """Shift-invariant softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def prior_variance(num_topics: int, alpha: float) -> float:
    """Variance, equal in all K dimensions, of the zero-mean Gaussian that
    approximates a symmetric Dirichlet(alpha) in softmax space: (1/alpha) *
    (1 - 2/K) + (1/K^2) * K * (1/alpha), which collapses to (1/alpha) * (1 - 1/K)."""
    if num_topics < 2:
        raise ValueError("num_topics must be >= 2")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    inv = 1.0 / alpha
    return inv * (1.0 - 2.0 / num_topics) + (num_topics * inv) / num_topics ** 2


def kl_rows(mu, logvar, variance: float) -> np.ndarray:
    """KL(N(mu, exp(logvar)) || N(0, variance)) in closed form, one per row."""
    return np.sum(0.5 * ((np.exp(logvar) + mu ** 2) / variance
                         - 1.0 + np.log(variance) - logvar), axis=-1)


def kl_grads(mu, logvar, variance: float):
    """Gradients of the summed KL with respect to mu and logvar."""
    return mu / variance, 0.5 * (np.exp(logvar) / variance - 1.0)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def encoder_hidden(params: dict, prefix: str, x: np.ndarray):
    """The encoder's softplus hidden layer over a row-stacked batch.
    Returns it, max(pre, 0) and e = exp(-|pre|); the backward pass reads
    the last two."""
    pre = x @ params[prefix + ".W_hidden"].T
    pre += params[prefix + ".b_hidden"]
    hidden, e = _softplus_parts(pre)  # leaves max(pre, 0) in pre
    return hidden, pre, e


def inference_forward(params: dict, prefix: str, x: np.ndarray,
                      dropout_mask: np.ndarray | None = None):
    """Encoder forward pass over a row-stacked batch.

    ``dropout_mask`` is an inverted-dropout scale matrix (entries 0 or
    1/(1-rate)) applied to the hidden activation, or None to disable.
    Returns (mu, logvar, cache) where cache feeds the backward pass.
    """
    dropped, relu, e = encoder_hidden(params, prefix, x)
    if dropout_mask is not None:
        dropped *= dropout_mask
    mu = dropped @ params[prefix + ".W_mu"].T + params[prefix + ".b_mu"]
    logvar = dropped @ params[prefix + ".W_logvar"].T + params[prefix + ".b_logvar"]
    return mu, logvar, (x, relu, e, dropped, dropout_mask)


def inference_backward(params: dict, prefix: str, cache, d_mu, d_logvar) -> dict:
    """The encoder's six parameter gradients, keyed like its parameters."""
    x, relu, e, dropped, mask = cache
    d_pre = d_mu @ params[prefix + ".W_mu"] + d_logvar @ params[prefix + ".W_logvar"]
    if mask is not None:
        d_pre *= mask
    # softplus' = sigmoid(pre) = where(pre > 0, 1, e) / (1 + e) from the
    # forward's e = exp(-|pre|); at pre = 0 both branches give 1/2.
    d_pre *= np.where(relu > 0, 1.0, e) / (1.0 + e)
    return {prefix + ".W_hidden": d_pre.T @ x, prefix + ".b_hidden": d_pre.sum(axis=0),
            prefix + ".W_mu": d_mu.T @ dropped, prefix + ".b_mu": d_mu.sum(axis=0),
            prefix + ".W_logvar": d_logvar.T @ dropped,
            prefix + ".b_logvar": d_logvar.sum(axis=0)}


def softmax_backward(theta: np.ndarray, d_theta: np.ndarray) -> np.ndarray:
    """Gradient through row-wise softmax: given d(loss)/d(theta), return
    d(loss)/d(logits)."""
    inner = np.sum(d_theta * theta, axis=-1, keepdims=True)
    return theta * (d_theta - inner)


# Adam's decay rates and denominator guard, fixed for every model.
ADAM_BETA1 = 0.99
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
_ADAM_CHUNK = 32768  # the 5 float64 slices a chunk touches (1.25 MiB) stay in a 2 MiB L2


@dataclass
class AdamState:
    """Adam over one parameter arena: ``adam_step`` owns the flat moments and
    gradient, a one-chunk scratch, and the blocks whose tiling it last checked."""

    learning_rate: float = 2e-3
    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    grad: np.ndarray | None = None
    scratch: np.ndarray | None = None
    blocks: tuple = field(default=(), repr=False)
    arena: np.ndarray | None = field(default=None, repr=False)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _arena(blocks: tuple) -> np.ndarray:
    """The 1-D float64 buffer that ``blocks`` tile whole and in order, each
    C-contiguous and starting where the one before ends. Raises
    ``ValueError`` when there is none."""
    arena = blocks[0].reshape(-1) if blocks[0].base is None else blocks[0].base
    end = _address(arena)
    for block in blocks:
        if block.dtype != np.float64 or not block.flags.c_contiguous or _address(block) != end:
            break
        end += block.nbytes
    else:
        if (isinstance(arena, np.ndarray) and arena.ndim == 1 and arena.dtype == np.float64
                and arena.flags.c_contiguous and end == _address(arena) + arena.nbytes):
            return arena
    raise ValueError("parameter blocks must tile one float64 buffer in order, "
                     "as models.init_params lays them out")


def adam_step(params: dict, grads: dict, state: AdamState):
    """One Adam update, in place, over the float64 buffer that the parameter
    blocks tile in order (as ``models.init_params`` lays them out), one pass
    per formula step over each ``_ADAM_CHUNK`` slice in turn. Returns the same
    (params, state) pair. Raises ``ValueError`` for blocks that tile no buffer,
    for a gradient that is missing, misshapen or has no parameter block, and
    for moments built for an arena of another size."""
    for name, g in grads.items():
        p = params.get(name)
        if p is None:
            raise ValueError(f"gradient for {name!r} has no parameter block")
        if g.shape != p.shape:
            raise ValueError(f"gradient for {name!r} has shape {g.shape}, "
                             f"parameter has {p.shape}")
    if len(grads) != len(params):
        raise ValueError(f"no gradient for the blocks {sorted(set(params) - set(grads))}")
    blocks = tuple(params.values())
    if len(blocks) != len(state.blocks) or any(map(operator.is_not, blocks, state.blocks)):
        state.blocks, state.arena = blocks, _arena(blocks)
    p = state.arena
    if state.first_moment is None:
        state.first_moment, state.second_moment, state.grad = np.zeros((3, p.size))
        state.scratch = np.empty(min(p.size, _ADAM_CHUNK))
    elif state.first_moment.size != p.size:
        raise ValueError(f"moments for {state.first_moment.size} parameters, arena of {p.size}")
    m, v, g = state.first_moment, state.second_moment, state.grad
    np.concatenate([grads[name] for name in params], axis=None, out=g)
    state.step += 1
    # Kingma & Ba's ordering (arXiv 1412.6980, section 2): the bias
    # corrections fold into the step size and epsilon.
    root_c2 = math.sqrt(1.0 - ADAM_BETA2 ** state.step)
    eps_hat = ADAM_EPSILON * root_c2
    step_size = state.learning_rate * root_c2 / (1.0 - ADAM_BETA1 ** state.step)
    for start in range(0, p.size, _ADAM_CHUNK):
        pc, mc, vc, gc = (a[start:start + _ADAM_CHUNK] for a in (p, m, v, g))
        s = state.scratch[:gc.size]
        mc *= ADAM_BETA1
        mc += np.multiply(gc, 1.0 - ADAM_BETA1, out=s)
        vc *= ADAM_BETA2
        np.multiply(gc, 1.0 - ADAM_BETA2, out=s)
        s *= gc
        vc += s
        np.sqrt(vc, out=s)
        s += eps_hat
        np.divide(mc, s, out=s)
        s *= step_size
        pc -= s
    return params, state


# Largest relative error ``GradcheckReport.ok`` accepts. Correct gradients
# of every model objective check below 1e-6 in the unit tests, and the worst
# seen over the acceptance check's 20 random points was 8.9e-8; a gradient
# off by a factor reads ~0.1 and above.
_GRADCHECK_TOLERANCE = 1e-6


@dataclass(frozen=True)
class GradcheckReport:
    """Relative error of analytic against finite-difference gradients,
    per parameter block and overall."""

    per_block: dict[str, float]

    @property
    def max_relative_error(self) -> float:
        """The largest block error; NaN if any block's error is NaN."""
        return float(np.max(list(self.per_block.values())))

    @property
    def ok(self) -> bool:
        """Every block within ``_GRADCHECK_TOLERANCE``; NaN fails."""
        return bool(self.max_relative_error <= _GRADCHECK_TOLERANCE)


def gradcheck(loss_fn, params: dict, step: float = 1e-5,
              max_coords_per_block: int = 32,
              rng: np.random.Generator | None = None) -> GradcheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(params) -> (loss, grads)`` must be deterministic (fix any
    noise draws and disable dropout before calling). For each parameter
    block up to ``max_coords_per_block`` coordinates are sampled and the
    block's relative error is the l2 distance between analytic and
    finite-difference values over those coordinates, divided by the larger
    of their norms. Parameters are copied; the caller's arrays are left
    untouched. Raises ``ValueError`` for a coordinate count below 1, for no
    parameter blocks, and naming a block the analytic gradients lack.
    """
    if max_coords_per_block < 1:
        raise ValueError(f"max_coords_per_block must be >= 1, got {max_coords_per_block}")
    if not params:
        raise ValueError("gradcheck needs at least one parameter block")
    if rng is None:
        rng = np.random.default_rng(0)
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    _, analytic = loss_fn(work)
    missing = sorted(set(work) - set(analytic))
    if missing:
        raise ValueError(f"analytic gradients lack the blocks {missing}")
    per_block = {}
    for name in sorted(work):
        flat = work[name].reshape(-1)
        n = flat.size
        count = min(n, max_coords_per_block)
        coords = rng.choice(n, size=count, replace=False) if count < n else np.arange(n)
        fd = np.empty(count)
        for j, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = loss_fn(work)
            flat[i] = orig - step
            down, _ = loss_fn(work)
            flat[i] = orig
            fd[j] = (up - down) / (2.0 * step)
        ana = analytic[name].reshape(-1)[coords]
        denom = max(np.linalg.norm(ana), np.linalg.norm(fd), 1e-12)
        per_block[name] = float(np.linalg.norm(ana - fd) / denom)
    return GradcheckReport(per_block=per_block)


def named_rng(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-purpose random stream derived from one seed."""
    import zlib
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


# (get, set) thread-count symbols, by OpenBLAS build: numpy's bundled
# scipy-openblas, then ILP64 and LP64 OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas_thread_calls():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    looked up once; None, with a warning, for any other BLAS."""
    import ctypes

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(handle, get_name, None)
            set_ = getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    logger.warning("numpy does not use its bundled OpenBLAS; the BLAS thread count "
                   "is not pinned, so results may depend on it")
    return None


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator that runs its body with numpy's bundled
    OpenBLAS on one thread and restores the previous count when the
    outermost body, over all threads of the process, leaves."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = 1

    def __enter__(self):
        calls = _openblas_thread_calls()
        if calls is not None:
            with self._lock:
                if self._depth == 0:
                    self._restore = calls[0]()
                    calls[1](1)
                self._depth += 1
        return self

    def __exit__(self, *exc):
        calls = _openblas_thread_calls()
        if calls is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    calls[1](self._restore)
        return False


one_blas_thread = _OneBlasThread()
