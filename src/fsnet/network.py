"""Dense stacks (encoder, classifier head, decoder) and their one NumPy
pass, the one pass of the reconstruction (ReconPass), the scores of the
hard-selection pass, the one rule (virtual) of the virtual weights of both
embedding-predicted layers, the reconstruction matrix, and the one
parameter layout that initialization, counting, loading, the training pass
and the loss graph share: zeros_params alone lists its layers, and
DenseStack.named/map alone walk a stack's arrays."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import numerics
from .config import check_field_types
from .numerics import DimensionError, leaky_gate, softmax
from .rng import RngState


@dataclass(frozen=True)
class Architecture:
    """Layer widths of the full network.

    The default widths give the stack
    d -> n_select -> 64 -> 32 -> 16 (-> n_classes) -> 32 -> 64 -> d.
    """

    n_features: int
    n_select: int
    n_classes: int
    encoder: tuple[int, ...] = (64, 32, 16)
    decoder: tuple[int, ...] = (32, 64)

    def __post_init__(self):
        check_field_types(self)
        if self.n_features < 1 or self.n_select < 1 or self.n_classes < 2:
            raise ValueError(
                f"invalid architecture: d={self.n_features}, K={self.n_select},"
                f" classes={self.n_classes}"
            )
        if self.n_select > self.n_features:
            raise ValueError(
                f"cannot select {self.n_select} of {self.n_features} features"
            )
        if not self.encoder or not self.decoder:
            raise ValueError("encoder and decoder need at least one layer each")
        if any(w < 1 for w in self.encoder + self.decoder):
            raise ValueError("layer widths must be positive")

    @property
    def hidden_width(self) -> int:
        return self.encoder[-1]

    @property
    def recon_width(self) -> int:
        return self.decoder[-1]


@dataclass
class DenseStack:
    """Ordered fully connected layers; weights are (out, in), biases optional.
    The loss graph holds tape leaves in the same slots, and the training
    pass its gradients."""

    weights: list[np.ndarray]
    biases: list[np.ndarray] | None = None

    def named(self, label: str) -> list[tuple[str, np.ndarray]]:
        """The arrays as label.i for weight i, then label.i.bias for bias i."""
        biases = [(f"{label}.{i}.bias", b) for i, b in enumerate(self.biases or [])]
        return [(f"{label}.{i}", w) for i, w in enumerate(self.weights)] + biases

    def map(self, fn: Callable) -> "DenseStack":
        """The same stack holding fn(arr) for every array, in named() order."""
        ws = [fn(w) for w in self.weights]
        return DenseStack(ws, None if self.biases is None else [fn(b) for b in self.biases])


@dataclass
class FsNetParams:
    """Every trainable array of the model, in a fixed order.

    select_w and recon_w are (K, b) and (h', b) in predictor mode; in dense
    mode they address features directly and are (K, d) and (h', d). Where the
    loss cannot reach them (recon_weight 0), the decoder is empty and recon_w
    None. named() is the order that model files, gradients and optimizer slots
    follow, and map() rebuilds the structure in that order; both compose the
    stacks' own.
    """

    select_w: np.ndarray
    encoder: DenseStack
    classifier: DenseStack
    decoder: DenseStack
    recon_w: np.ndarray | None

    @property
    def dtype(self) -> np.dtype:
        """The arrays' dtype, the one every pass over them computes in."""
        return self.select_w.dtype

    def named(self) -> list[tuple[str, np.ndarray]]:
        stacks = self.encoder.named("encoder") + self.classifier.named("classifier")
        stacks += self.decoder.named("decoder")
        recon = [] if self.recon_w is None else [("recon_w", self.recon_w)]
        return [("select_w", self.select_w), *stacks, *recon]

    def arrays(self) -> list[np.ndarray]:
        return [arr for _, arr in self.named()]

    def map(self, fn: Callable) -> "FsNetParams":
        """The same structure holding fn(arr) for every array, with fn called
        in named() order."""
        select_w = fn(self.select_w)
        stacks = [s.map(fn) for s in (self.encoder, self.classifier, self.decoder)]
        return FsNetParams(select_w, *stacks, None if self.recon_w is None else fn(self.recon_w))

    def replace_arrays(self, arrays: list[np.ndarray]) -> "FsNetParams":
        """Same structure with new values, in named() order."""
        if len(arrays) != len(self.named()):
            raise DimensionError(f"{len(arrays)} replacement arrays for {len(self.named())}")
        it = iter(arrays)

        def take(template: np.ndarray) -> np.ndarray:
            arr = next(it)
            if arr.shape != template.shape:
                raise DimensionError(
                    f"replacement shape {arr.shape} != expected {template.shape}"
                )
            return arr

        return self.map(take)


def zeros_params(
    arch: Architecture, embed_size: int, mode: str, use_bias: bool = False, decodes: bool = True
) -> FsNetParams:
    """All-zero parameters of dtype numerics.DTYPE in FsNetParams.named()
    layout: the one list of the layers and their shapes. Weights are (out,
    in); biases, if any, (out,). Unless `decodes`, the decoder is empty and
    recon_w None."""
    if mode not in ("predictor", "dense"):
        raise ValueError(f"mode must be 'predictor' or 'dense', got {mode!r}")
    width = embed_size if mode == "predictor" else arch.n_features

    def zeros(shape) -> np.ndarray:
        return np.zeros(shape, dtype=numerics.DTYPE)

    def stack(dims: list[int]) -> DenseStack:
        ws = [zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])]
        return DenseStack(ws, [zeros(o) for o in dims[1:]] if use_bias else None)

    return FsNetParams(
        zeros((arch.n_select, width)),
        stack([arch.n_select, *arch.encoder]),
        stack([arch.hidden_width, arch.n_classes]),
        stack([arch.hidden_width, *arch.decoder] if decodes else []),
        zeros((arch.recon_width, width)) if decodes else None,
    )


def init_params(
    arch: Architecture, embed_size: int, mode: str, rng: RngState, use_bias: bool = False,
    decodes: bool = True,
) -> FsNetParams:
    """zeros_params with Glorot-uniform weights, drawn in named() order so a
    seed pins the model; the decoder and recon_w come last, so one without
    them holds the first arrays of one with them. Each weight is computed
    from the generator's float64 draw and then cast to the array's dtype."""

    def glorot(a: np.ndarray) -> np.ndarray:
        if a.ndim == 1:  # a bias stays zero
            return a
        w = (rng.uniform(a.shape) * 2.0 - 1.0) * np.sqrt(6.0 / sum(a.shape))  # out + in
        return w.astype(a.dtype, copy=False)

    return zeros_params(arch, embed_size, mode, use_bias, decodes).map(glorot)


def trainable_param_count(
    arch: Architecture, embed_size: int, mode: str, use_bias: bool = False, decodes: bool = True
) -> int:
    """Total trainable parameters: the size of zeros_params of the same arguments."""
    return sum(arr.size for arr in zeros_params(arch, embed_size, mode, use_bias, decodes).arrays())


class StackPass:
    """A DenseStack applied to a batch, keeping what its backward needs: the
    one NumPy pass of the encoder, the classifier head and the decoder, run
    by training and inference alike. Each hidden layer is a leaky ReLU,
    scaled by its dropout mask if masks are given; the last layer of a
    final_softmax stack is a softmax over each row. The batch and the masks
    come in the stack's dtype."""

    def __init__(
        self,
        stack: DenseStack,
        batch: np.ndarray,
        slope: float,
        masks: list[np.ndarray] | None,
        final_softmax: bool,
    ):
        self.stack, self.masks, self.final_softmax = stack, masks, final_softmax
        self.inputs: list[np.ndarray] = []
        self.leaks: list[np.ndarray] = []  # leaky-ReLU derivative of each hidden layer
        a = batch
        last = len(stack.weights) - 1
        for i, w in enumerate(stack.weights):
            self.inputs.append(a)
            z = a @ w.T
            if stack.biases is not None:
                z = z + stack.biases[i]
            if i == last and final_softmax:
                a = softmax(z, axis=1)
            else:
                self.leaks.append(leaky_gate(z, slope))
                a = z * self.leaks[-1]
                if self.masks is not None:
                    a = a * self.masks[i]
        self.output = a

    def backward(self, g: np.ndarray) -> np.ndarray:
        """The gradient into the batch, from the gradient g at the output.
        The layers' own gradients are left in self.grads, a DenseStack."""
        stack, last = self.stack, len(self.stack.weights) - 1
        weight_grads = [None] * (last + 1)
        bias_grads = None if stack.biases is None else [None] * (last + 1)
        for i in range(last, -1, -1):
            if i == last and self.final_softmax:
                p = self.output
                g = p * (g - (g * p).sum(axis=1, keepdims=True))
            else:
                if self.masks is not None:
                    g = g * self.masks[i]
                g = g * self.leaks[i]
            if bias_grads is not None:
                bias_grads[i] = g.sum(axis=0)
            weight_grads[i] = (self.inputs[i].T @ g).T
            g = g @ stack.weights[i]
        self.grads = DenseStack(weight_grads, bias_grads)
        return g


def encode(enc: DenseStack, x_selected: np.ndarray, slope: float) -> np.ndarray:
    """Hidden representation of a batch of selected inputs (leaky activations throughout)."""
    return StackPass(enc, x_selected, slope, None, False).output


def classify(cls: DenseStack, hidden: np.ndarray, slope: float) -> np.ndarray:
    """Class probabilities from a batch of hidden representations (softmax output)."""
    return StackPass(cls, hidden, slope, None, True).output


def decode(dec: DenseStack, hidden: np.ndarray, slope: float) -> np.ndarray:
    """Reconstruction-side hidden representation (leaky activations throughout)."""
    return StackPass(dec, hidden, slope, None, False).output


def _flat_view(
    workspace: dict[str, np.ndarray], name: str, shape: tuple[int, int], dtype: np.dtype
) -> np.ndarray:
    """A C-ordered view of the first rows * columns elements of the flat
    buffer workspace[name], which is dropped and made again if it holds fewer
    or another dtype."""
    size = shape[0] * shape[1]
    if name not in workspace or workspace[name].size < size or workspace[name].dtype != dtype:
        workspace.pop(name, None)  # before the new one is made
        workspace[name] = np.empty(size, dtype=dtype)
    return workspace[name][:size].reshape(shape)


class ReconPass:
    """The reconstruction of a batch X from its hidden representation, run by
    training and scoring alike: the decoder's StackPass, the error
    X - decoder(hidden) @ V for V = recon_mat, and the squared error, which
    the caller sums. Both are C-ordered (n, d) views of the flat buffers
    workspace["error"] and workspace["squared"], NumPy's layout for either:
    the first pass makes them, a taller batch makes them again, and other
    passes overwrite their prefixes, so a monitor can score a test split in
    the training pass's buffers. Only backward() needs an (h', d) buffer: the
    gradient of V goes into the squared error's, dead once summed, and the
    gradient before V's tanh into V's own storage, using recon_mat up. The
    pass computes in recon_mat's dtype, in which X comes.
    """

    def __init__(
        self, decoder: DenseStack, recon_mat: np.ndarray, X: np.ndarray, hidden: np.ndarray,
        slope: float, masks: list[np.ndarray] | None, workspace: dict[str, np.ndarray],
    ):
        self.decoder = StackPass(decoder, hidden, slope, masks, False)
        self.recon_mat, self.workspace, dtype = recon_mat, workspace, recon_mat.dtype
        error = np.matmul(self.decoder.output, recon_mat, out=_flat_view(workspace, "error", X.shape, dtype))
        self.error = np.subtract(X, error, out=error)  # x_hat becomes the error
        self.squared = np.multiply(error, error, out=_flat_view(workspace, "squared", X.shape, dtype))

    def backward(self, scale: float) -> np.ndarray:
        """The gradient into hidden of scale times the summed squared error;
        the decoder's gradients go to self.decoder.grads, and V's before its
        tanh to self.g_pre_tanh, in recon_mat's storage."""
        # the tape's -(2 * broadcast(scale) * error) without its (n, d)
        # broadcast temporary; doubling and negation are exact
        g_x_hat = np.multiply(-2.0 * scale, self.error, out=self.error)
        v, self.squared = self.recon_mat, None  # its buffer takes the gradient of V
        g_v = _flat_view(self.workspace, "squared", v.shape, v.dtype)
        np.matmul(self.decoder.output.T, g_x_hat, out=g_v)
        g_hidden = self.decoder.backward(g_x_hat @ v.T)
        # g_v * (1.0 - V * V) in the storage of V
        self.g_pre_tanh = np.multiply(v, v, out=v)
        np.subtract(1.0, self.g_pre_tanh, out=self.g_pre_tanh)
        np.multiply(g_v, self.g_pre_tanh, out=self.g_pre_tanh)
        return g_hidden


def hard_scores(
    params: FsNetParams, X: np.ndarray, y: np.ndarray, selected: list[int], slope: float,
    recon_mat: np.ndarray | None = None, workspace: dict[str, np.ndarray] | None = None,
) -> tuple[float, float | None]:
    """The hard-selection pass of X, which comes in the params' dtype, and
    encodes X[:, selected] once: its accuracy on y (argmax, ties to the
    lowest class) and, given recon_mat = recon_matrix(...), the mean summed
    squared reconstruction error per row, from ReconPass's forward in the
    buffers of `workspace` (fresh ones if None); else None."""
    if len(X) == 0:
        raise ValueError("cannot score an empty dataset")
    hidden = encode(params.encoder, X[:, selected], slope)
    acc = float((classify(params.classifier, hidden, slope).argmax(axis=1) == y).mean())
    if recon_mat is None:
        return acc, None
    recon = ReconPass(params.decoder, recon_mat, X, hidden, slope, None, {} if workspace is None else workspace)
    return acc, float(recon.squared.sum(axis=1).mean())


def virtual(w: np.ndarray, table: np.ndarray | None, out: np.ndarray | None = None) -> np.ndarray:
    """The virtual weights of a predicted layer, one column per feature:
    w @ table.T for the (d, b) embedding table cast to w's dtype, written into
    `out` if given, or w itself in dense mode (table is None), the rule with
    the identity."""
    return w if table is None else np.matmul(w, table.astype(w.dtype, copy=False).T, out=out)


def virtual_grad(g: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """The gradient of w from the gradient g of virtual(w, table), in g's dtype."""
    return g if table is None else g @ table.astype(g.dtype, copy=False)


def recon_matrix(
    recon_w: np.ndarray, emb: np.ndarray | None, out: np.ndarray | None = None
) -> np.ndarray:
    """The reconstruction matrix V = tanh(virtual(recon_w, emb)), (h', d) and
    C-ordered in both modes: column j maps a reconstruction-side hidden
    vector to feature j. `out`, if given, is an earlier result to overwrite."""
    v = virtual(recon_w, emb, out)
    return np.tanh(v, out=out if v is recon_w else v)  # never over recon_w itself


def reconstruct(recon_w: np.ndarray, emb: np.ndarray | None, h_tilde: np.ndarray) -> np.ndarray:
    """Reconstructed inputs: each row of h_tilde mapped through the reconstruction matrix."""
    return h_tilde @ recon_matrix(recon_w, emb)
