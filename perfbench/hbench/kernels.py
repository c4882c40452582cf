"""Computed (not measured) operation and byte counts of the posture network.

Derived from tensor shapes alone, the way `hometwin.posture.net` executes
them: a convolution is an im2col copy plus one GEMM, dense layers are GEMMs,
and batch norm, ReLU, pooling and dropout are elementwise passes.  Bytes
moved count every operand read and every result written once (float32), as
if nothing stayed in cache, so they are a traffic estimate, not a
measurement.
"""

from __future__ import annotations

F32 = 4


def _layer_costs(config, n: int, train: bool) -> list[tuple[float, float, float, float]]:
    """Per layer: (forward flops, forward bytes, backward flops, backward bytes)."""
    ch, side, dim = config.in_channels, config.resolution, None
    out = []
    for spec in config.layers:
        if spec.kind == "conv":
            k, pad = spec.kernel, spec.pad
            so = side + 2 * pad - k + 1
            patch = ch * k * k
            x = n * ch * side * side
            cols = n * patch * so * so
            w = spec.out * patch
            y = n * spec.out * so * so
            gemm = 2.0 * spec.out * patch * so * so * n
            fwd_bytes = F32 * (x + 2 * cols + w + y)  # im2col write + GEMM read
            # dW = dY cols^T and dcols = W^T dY, then col2im scatters dcols
            bwd_flops = 2 * gemm + cols
            bwd_bytes = F32 * (2 * y + 2 * cols + 2 * w + 2 * cols + x)
            out.append((gemm + y, fwd_bytes, bwd_flops, bwd_bytes))
            ch, side = spec.out, so
        elif spec.kind == "fc":
            w = dim * spec.out
            gemm = 2.0 * n * w
            fwd_bytes = F32 * (n * dim + w + n * spec.out)
            bwd_bytes = F32 * (2 * n * spec.out + n * dim + 2 * w + n * dim)
            out.append((gemm + n * spec.out, fwd_bytes, 2 * gemm, bwd_bytes))
            dim = spec.out
        elif spec.kind == "flatten":
            dim = ch * side * side
            out.append((0.0, 0.0, 0.0, 0.0))
        else:
            size = n * (dim if dim is not None else ch * side * side)
            if spec.kind == "pool":
                side //= 2
                small = n * ch * side * side
                out.append((float(size), F32 * (size + small), float(size), F32 * (small + size)))
            elif spec.kind == "dropout" and not train:
                out.append((0.0, 0.0, 0.0, 0.0))
            else:  # bn, relu, train-mode dropout: a few flops per element
                per = 8.0 if spec.kind == "bn" else 1.0
                out.append((per * size, 2 * F32 * size, per * size, 3 * F32 * size))
    return out


def forward_cost(config, n: int) -> tuple[float, float]:
    """(flops, bytes) of one inference-mode forward pass on a batch of n."""
    costs = _layer_costs(config, n, train=False)
    return sum(c[0] for c in costs), sum(c[1] for c in costs)


def train_step_cost(config, n: int) -> tuple[float, float]:
    """(flops, bytes) of one training step's forward plus backward pass."""
    costs = _layer_costs(config, n, train=True)
    return sum(c[0] + c[2] for c in costs), sum(c[1] + c[3] for c in costs)
