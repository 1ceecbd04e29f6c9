"""Small fully-connected networks with hand-written reverse mode.

All architectures in this package are fixed, shallow MLPs, so rather than pull
in an autodiff framework we keep explicit (W, b) arrays per layer and write
the backward pass by hand. ``forward`` returns a cache; ``backward`` consumes
it together with an output cotangent and produces the flat parameter gradient
(and optionally the gradient with respect to the inputs, which is what lets
separate nets be chained, e.g. feature extractor -> energy head). A training
loop passes a ``Workspace`` to both, so that its steps reuse their arrays.

Parameter layout: each net keeps its parameters in one flat float64 buffer,
``params`` = concat(W1.ravel(), b1, W2.ravel(), b2, ...), row-major, layer
order first-to-last; the flat gradient of ``backward`` has the same layout.
``weights`` and ``biases`` are tuples of views into that buffer, so an
in-place write to a layer array (``net.weights[0][...] = w``) or to the buffer
changes the net, and a layer cannot be rebound. ``theta`` reads a copy of the
buffer and writes into it. ``bind`` moves the parameters of several nets into
consecutive slices of one buffer, which a training loop then updates in place
with one optimizer call. A ``NetGroup`` (a model or proposal made of nets)
reads, writes and binds the parameters of its nets in that same order. ReLU
derivative at exactly 0 is taken to be 0.

Precision: parameters, parameter gradients and the arithmetic around the
passes are float64. A ``Workspace`` carries the precision of the passes made
in it, float64 by default: a pass in a float32 workspace casts its input and
each layer's weights and bias to float32 and keeps float32 activations. Its
backward pass hands back the flat parameter gradient in float64 and the input
gradient in float32, so chained nets (feature net -> energy head -> y-branch)
pass float32 arrays from one pass to the next with no float64 copy. The
training steps of both families run in float32 workspaces
(``training.STEP_DTYPE``); the callers cast the energies and b values they
read to float64. Every other pass is float64.

Forward-only passes at many rows (evaluation, validation, grid export) keep
no cache and run in row tiles of at most ``TILE_ROWS`` rows through one
reused ``Workspace``, so their working memory is one tile's activations
whatever the row count; the output alone grows with the rows.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import PortableRng

# Rows per tile of a cache-free forward pass. At 20k rows on a 2-CPU host
# (OpenBLAS 0.3.31) the density net took 61 ms in one pass and 50 ms in
# 4096-row tiles. At 2048 rows a tile of its 200-wide layer is 3.3 MB, and a
# 20k-draw density evaluation peaks at 7 MB of numpy allocations, against
# 13 MB at 4096, with the same output bits. The conditional energy grid
# tiles its draws by its own constant, ``regression.DRAW_TILE``.
TILE_ROWS = 2048


def row_tiles(n: int, rows: int | None = None) -> list[tuple[int, int]]:
    """(lo, hi) bounds of ceil(n / rows) near-equal tiles of n rows; ``rows``
    defaults to ``TILE_ROWS``.

    Every tile but the last has a multiple of 8 rows: tiles split elsewhere
    changed the last bit of some outputs (OpenBLAS 0.3.31), and with these a
    tiled pass has the bits of one pass when BLAS runs one thread. With two
    threads a one-pass gemv splits the rows between the threads at places
    that depend on n, so at some n (12289 and 20003 rows) the outputs of a
    last layer one unit wide differ from one pass in the last bit. Tiles of
    1024 rows are too small: they cut 1025 rows into 520 + 505, and the
    10-wide products of the conditional model (its head in ``energy_pairs``
    at 1025 and 1280 rows, the y-branch's head projection at 1025 draws)
    then differ from one pass in the last bit, at one and at two BLAS
    threads.
    """
    rows = TILE_ROWS if rows is None else rows
    if n <= rows:
        return [(0, n)]
    step = -(-n // -(-n // rows))
    step += -step % 8
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _scratch(workspace: Workspace | None, key, shape, dtype=None) -> np.ndarray | None:
    """The workspace's array for ``key``, or None (numpy allocates) without one."""
    return None if workspace is None else workspace.array(key, shape, dtype)


class Workspace:
    """Arrays that one caller reuses across the passes of its training loop.

    A step at a fixed batch shape then writes its activations and gradient
    intermediates into the memory of the previous step instead of having
    fresh pages faulted in: about 1600 page faults per forward and backward
    pass of the density net at 1024 rows, a third of the pass time (2-CPU
    virtual machine, OpenBLAS). Arrays are keyed by net and layer, so one
    workspace serves several nets; a cache made in it is valid until the
    next forward pass of the same net in the same workspace.

    ``dtype`` is the precision of the passes made in the workspace, and of its
    arrays unless ``array`` is asked for another dtype.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._arrays: dict = {}

    def array(self, key, shape: tuple, dtype=None) -> np.ndarray:
        """A C-contiguous array of ``shape`` for ``key``, of the workspace's
        dtype by default: a view of the start of the key's array, which is
        replaced only when it is too small or of another dtype, so a shorter
        last tile or batch allocates nothing."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        size = math.prod(shape)
        a = self._arrays.get(key)
        if a is None or a.size < size or a.dtype != dtype:
            a = self._arrays[key] = np.empty(size, dtype)
        return a[:size].reshape(shape)


class Mlp:
    """ReLU MLP. Hidden layers are always ReLU; the output layer is linear
    unless ``relu_output`` is set (used for feature branches whose output is
    itself a hidden representation of a larger network).

    Weights are initialized uniformly in +-1/sqrt(fan_in); biases start at 0,
    so a freshly built net with ``rng=None`` (all-zero weights) outputs 0.
    """

    def __init__(self, widths: list[int], rng: PortableRng | None = None, relu_output: bool = False):
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        self.widths = list(int(w) for w in widths)
        self.relu_output = bool(relu_output)
        self.n_params = sum(a * b + b for a, b in zip(self.widths[:-1], self.widths[1:]))
        self._view(np.zeros(self.n_params))
        if rng is not None:
            for w in self.weights:
                bound = 1.0 / np.sqrt(w.shape[0])
                w[...] = rng.uniform(w.shape, -bound, bound)

    def _view(self, buffer: np.ndarray) -> None:
        """Make ``buffer`` the parameter storage and the layers views into it."""
        self.params = buffer
        weights, biases, pos = [], [], 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            weights.append(buffer[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(buffer[pos : pos + fan_out])
            pos += fan_out
        self.weights, self.biases = tuple(weights), tuple(biases)

    @property
    def theta(self) -> np.ndarray:
        return self.params.copy()

    @theta.setter
    def theta(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.params[...] = flat

    def forward(self, x: np.ndarray, keep_cache: bool = True,
                workspace: Workspace | None = None) -> tuple[np.ndarray, list | None]:
        """Returns (output (n, out_width), cache for backward).

        ReLU runs in place, so a NaN pre-activation stays NaN. The cache holds
        each layer's input and the output; a ReLU layer's derivative mask is
        read back from its (post-ReLU) output. With a ``workspace`` the
        activations, output included, are written into its arrays, in its
        dtype (see the module docstring). With
        ``keep_cache`` off and no workspace the cache is None and the pass
        runs over the ``row_tiles`` of x through one workspace of its own,
        writing each tile's output into one fresh (n, out_width) array: at
        most one tile of every layer's activations is alive at once.
        """
        h = np.asarray(x)
        if h.ndim != 2 or h.shape[1] != self.widths[0]:
            raise ValueError(f"expected input shape (n, {self.widths[0]}), got {h.shape}")
        if keep_cache or workspace is not None or h.shape[0] <= TILE_ROWS:
            return self._layers(h, keep_cache, workspace)
        out = np.empty((h.shape[0], self.widths[-1]))
        workspace = Workspace()
        for lo, hi in row_tiles(h.shape[0]):
            out[lo:hi] = self._layers(h[lo:hi], False, workspace)[0]
        return out, None

    def _layers(self, h: np.ndarray, keep_cache: bool, workspace: Workspace | None):
        """The pass of ``forward`` over one checked input, in one piece, in the
        workspace's dtype (float64 without one)."""
        dtype = np.float64 if workspace is None else workspace.dtype
        h = h.astype(dtype, copy=False)
        acts = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(h, w.astype(dtype, copy=False),
                          out=_scratch(workspace, (id(self), "act", i), (h.shape[0], w.shape[1])))
            h += b.astype(dtype, copy=False)
            if i < last or self.relu_output:
                np.maximum(h, 0.0, out=h)
            if keep_cache:
                acts.append(h)
        return h, acts if keep_cache else None

    def backward(self, cache: list, cotangent: np.ndarray, need_input_grad: bool = False,
                 workspace: Workspace | None = None):
        """Reverse pass. ``cotangent`` has shape (n, out_width).

        Returns the flat parameter gradient, or (flat gradient, input gradient)
        when ``need_input_grad`` is set. Gradients are of sum_n <cotangent_n, out_n>.
        Both are fresh arrays: the flat gradient float64, the input gradient in
        the cache's dtype, which the pass runs in (so a float32 pass hands it to
        the next net's float32 pass without a copy); a ``workspace`` holds only
        the intermediates.
        """
        acts = cache
        g = np.asarray(cotangent, dtype=acts[-1].dtype)
        last = len(self.weights) - 1
        flat = np.empty(self.n_params)
        end = flat.size
        for i in range(last, -1, -1):
            w = self.weights[i].astype(g.dtype, copy=False)
            if i < last or self.relu_output:
                mask = np.greater(acts[i + 1], 0.0, out=_scratch(workspace, (id(self), "mask", i), g.shape, bool))
                # below the top layer g is this pass's own array; the cotangent is the caller's
                out = g if i < last else _scratch(workspace, (id(self), "top", i), g.shape)
                g = np.multiply(g, mask, out=out)
            g.sum(axis=0, out=flat[end - w.shape[1] : end])
            end -= w.shape[1]
            np.matmul(acts[i].T, g, out=flat[end - w.size : end].reshape(w.shape))
            end -= w.size
            if i > 0 or need_input_grad:
                # the input gradient is returned, so it never lives in the workspace
                out = _scratch(workspace, (id(self), "grad", i), (g.shape[0], w.shape[0])) if i > 0 else None
                # a layer one unit wide makes this an outer product: a broadcast
                # multiply takes about half the time of a k = 1 GEMM and makes the
                # same products, but keeps the sign of a zero one, where BLAS
                # gives +0 (OpenBLAS 0.3.31)
                g = np.multiply(g, w.T, out=out) if w.shape[1] == 1 else np.matmul(g, w.T, out=out)
        if need_input_grad:
            return flat, g
        return flat


def bind(nets, buffer: np.ndarray | None = None) -> np.ndarray:
    """Move the parameters of ``nets`` into consecutive slices of one flat
    buffer (a new one by default) and return it; each net then views its
    slice, so an in-place update of the buffer updates every net."""
    sizes = [net.n_params for net in nets]
    if buffer is None:
        buffer = np.empty(sum(sizes))
    if buffer.shape != (sum(sizes),):
        raise ValueError(f"expected a buffer of {sum(sizes)} parameters, got {buffer.shape}")
    pos = 0
    for net, size in zip(nets, sizes):
        part = buffer[pos : pos + size]
        part[...] = net.params
        net._view(part)
        pos += size
    return buffer


class NetGroup:
    """The parameters of the nets in ``self.nets`` as one flat vector: each
    net's ``params`` in tuple order, the layout ``bind`` gives a buffer.
    Models and proposals made of nets inherit this and set ``nets``."""

    nets: tuple[Mlp, ...]

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([net.params for net in self.nets])

    @theta.setter
    def theta(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for net in self.nets:
            net.params[...] = flat[pos : pos + net.n_params]
            pos += net.n_params

    @property
    def n_params(self) -> int:
        return sum(net.n_params for net in self.nets)

    def bind(self, buffer: np.ndarray) -> None:
        bind(self.nets, buffer)
