"""Unfolded complex assembly of the two-contour operators, kept as the
reference the conjugation fold and the Schur-complement reduction are
tested against.

Each function sums over every node of its grids in complex arithmetic and
assumes no symmetry of the grids: the line operators are full n x n complex
matrices K W, whose determinants the package takes from their real forms,
and union_matrix is the dense Nystrom matrix of Q = [[0, A], [B, 0]] on the
line-plus-loop union that the line-grid routes reduce.  The jump vectors
and the pole rule's weights are written out here, apart from the package's
kernels.rh_vectors; only the pole count is the package's (kernels._poles).
"""

from __future__ import annotations

import math

import numpy as np

from critgap import kernels
from critgap.special import gamma, recip_gamma

TWO_PI_I = 2j * math.pi


def line_vectors(line, alpha, a):
    """f_line and h_line, the jump vectors' nonzero line components."""
    z = line.nodes
    f_line = np.exp(alpha * z * z / 4.0 - a * z) / TWO_PI_I
    h_line = -recip_gamma(z) * np.exp(alpha * z * z / 4.0)
    return f_line, h_line


def union_rows(pair, a):
    """The two-vectors (f, h) as rows over the union grid, line nodes first:
    f = (f_line, 0), h = (0, h_line) on the line and f = (0, f_loop),
    h = (h_loop, 0) on the loop."""
    alpha, t = pair.alpha, pair.loop.nodes
    f_line, h_line = line_vectors(pair.line, alpha, a)
    f_loop = np.exp(-alpha * t * t / 4.0) / TWO_PI_I
    h_loop = gamma(t) * np.exp(-alpha * t * t / 4.0 + a * t)
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


def pole_blocks(line, alpha, a):
    """The coupling blocks on the pole rule over the whole line: A W_poles
    (line <- poles), whose loop weights are 2 pi i times Gamma's residues
    (-1)^k / k! at t = -k, and B (poles <- line) without line weights, with
    f_k = f_loop(-k) and W h_k, the pole rule's W h_loop."""
    z = line.nodes
    k = np.arange(kernels._poles(alpha, a)[0].size)
    f_line, h_line = line_vectors(line, alpha, a)
    f_poles = np.exp(-alpha * k * k / 4.0) / TWO_PI_I
    wh_poles = np.array([TWO_PI_I * (-1) ** j / math.factorial(j)
                         * math.exp(-alpha * j * j / 4.0 - a * j)
                         for j in k])
    block_a = np.outer(f_line, wh_poles) / (z[:, None] + k[None, :])
    block_b = np.outer(f_poles, h_line) / (-k[:, None] - z[None, :])
    return block_a, block_b, f_poles, wh_poles


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
    coupling blocks on the pole rule, or of `ha_operator` ("contour-H") on
    the same grids."""
    pair = kernels.qa_pair(alpha, a_max=a, refine=refine, order=order, a=a)
    if route == "contour-Q":
        block_a, block_b, _, _ = pole_blocks(pair.line, alpha, a)
        kv = block_a @ block_b
    else:
        inner = kernels.qa_pair(alpha, a_max=a, refine=1.4 * refine,
                                order=max(8, order - 4), a=a)
        kv = ha_matrix(pair, a, inner.loop)
    return kv * pair.line.weights[None, :]


def workspace_matrix(workspace, a):
    """The complex K W a RhWorkspace solves with at `a`, assembled in its
    integrable form (f(z).g(s) + e(z).h(s)) / (z - s) over the whole line,
    e = A W_poles f_poles and g = (W h_poles)^T B."""
    line = workspace.line
    block_a, block_b, f_poles, wh_poles = pole_blocks(line, workspace.alpha,
                                                      a)
    f_line, h_line = line_vectors(line, workspace.alpha, a)
    e = block_a @ f_poles
    g = wh_poles @ block_b
    diff = line.nodes[:, None] - line.nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    kv = (np.outer(f_line, g) + np.outer(e, h_line)) / diff
    np.fill_diagonal(kv, np.einsum("ik,ki->i", block_a, block_b))
    return kv * line.weights[None, :]


def mirror_similarity(n):
    """The unitary U = (I + iJ)/sqrt(2), J the reversal of an n-node grid:
    U* X U is real for every X with J conj(X) J = X."""
    return (np.eye(n) + 1j * np.eye(n)[::-1]) / math.sqrt(2.0)
