"""Unfolded complex assembly of the two-contour operators, kept as the
reference the conjugation fold and the Schur-complement reduction are
tested against.

Each function sums over every node of both grids in complex arithmetic and
assumes no symmetry of the grids: the line operators are full n x n complex
matrices K W, whose determinants the package now takes from their real
forms, and union_matrix is the dense Nystrom matrix of
Q = [[0, A], [B, 0]] on the line-plus-loop union that the line-grid routes
reduce.
"""

from __future__ import annotations

import math

import numpy as np

from critgap import kernels
from critgap.special import gamma, recip_gamma

TWO_PI_I = 2j * math.pi


def union_rows(pair, a):
    """The two-vectors (f, h) as rows over the union grid, line nodes first:
    f = (f_line, 0), h = (0, h_line) on the line and f = (0, f_loop),
    h = (h_loop, 0) on the loop."""
    f_line, h_line, f_loop, h_loop = kernels.rh_vectors(pair, a)
    m = f_line.size
    f = np.zeros((m + f_loop.size, 2), dtype=complex)
    h = np.zeros_like(f)
    f[:m, 0], h[:m, 1] = f_line, h_line
    f[m:, 1], h[m:, 0] = f_loop, h_loop
    return f, h


def union_matrix(pair, a):
    """Unweighted kernel Q[x, y] = f(x).h(y) / (x - y) on the union grid,
    line nodes first: [[0, A], [B, 0]], A line<-loop and B loop<-line.
    The union's weights are the line's followed by the loop's."""
    f, h = union_rows(pair, a)
    nodes = np.concatenate([pair.line.nodes, pair.loop.nodes])
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)  # numerator already vanishes on the diagonal
    return (f @ h.T) / diff


def cross_blocks(pair, a):
    """The full coupling blocks A[z, t] line<-loop and B[t, s] loop<-line,
    without quadrature weights."""
    alpha, z, t = pair.alpha, pair.line.nodes, pair.loop.nodes
    gz = np.exp(alpha * z * z / 4.0 - a * z)
    gt = gamma(t) * np.exp(-alpha * t * t / 4.0 + a * t)
    block_a = (gz[:, None] * gt[None, :]) / (z[:, None] - t[None, :]) / TWO_PI_I
    hz = recip_gamma(z) * np.exp(alpha * z * z / 4.0)
    ft = np.exp(-alpha * t * t / 4.0)
    block_b = (ft[:, None] * hz[None, :]) / (z[None, :] - t[:, None]) / TWO_PI_I
    return block_a, block_b


def ha_matrix(pair, a, loop):
    """The full line-reduced kernel K on the pair's line grid, its loop
    variable integrated on `loop`, without the line weights."""
    alpha, z = pair.alpha, pair.line.nodes
    t, wt = loop.nodes, loop.weights
    g = wt * gamma(t) * np.exp(a * t - alpha * t * t / 2.0)
    u = np.exp(-a * z + alpha * z * z / 4.0)[:, None] / (z[:, None] - t[None, :])
    v = (recip_gamma(z) * np.exp(alpha * z * z / 4.0))[:, None] / (z[:, None] - t[None, :])
    return (u * g[None, :]) @ v.T / TWO_PI_I ** 2


def line_matrix(a, alpha, route, refine=1.0, order=16):
    """The complex K W of route "contour-Q", the product of the two
    coupling blocks, or of `ha_operator` ("contour-H") on the same grids."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine, order=order, a=a)
    if route == "contour-Q":
        block_a, block_b = cross_blocks(pair, a)
        kv = (block_a * pair.loop.weights[None, :]) @ block_b
    else:
        inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                                order=max(8, order - 4), a=a)
        kv = ha_matrix(pair, a, inner.loop)
    return kv * pair.line.weights[None, :]


def workspace_matrix(workspace, a):
    """The complex K W a RhWorkspace solves with at `a`, assembled in its
    integrable form (f(z).g(s) + e(z).h(s)) / (z - s) over the whole line."""
    line, loop = workspace.line, workspace.loop
    pair = kernels.ContourPair(loop, line, workspace.alpha)
    block_a, block_b = cross_blocks(pair, 0.0)
    f, h = union_rows(pair, 0.0)
    n = line.nodes.size
    f_line, h_line, f_loop, h_loop = f[:n], h[:n], f[n:], h[n:]
    line_scale = np.exp(-a * line.nodes)
    loop_w = np.exp(a * loop.nodes) * loop.weights
    e = line_scale[:, None] * (block_a @ (loop_w[:, None] * f_loop))
    g = (loop_w[:, None] * h_loop).T @ block_b
    diff = line.nodes[:, None] - line.nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    kv = ((line_scale[:, None] * f_line) @ g + e @ h_line.T) / diff
    np.fill_diagonal(kv, line_scale * ((block_a * block_b.T) @ loop_w))
    return kv * line.weights[None, :]


def mirror_similarity(n):
    """The unitary U = (I + iJ)/sqrt(2), J the reversal of an n-node grid:
    U* X U is real for every X with J conj(X) J = X."""
    return (np.eye(n) + 1j * np.eye(n)[::-1]) / math.sqrt(2.0)
