"""Seeded sampling of Haar states and of the joint-measurement outcome law.

The outcome of the symmetric joint measurement on s copies of a pure state
phi is a state psi whose density w.r.t. Haar is proportional to
|<psi|phi>|^(2s).  Writing psi = e^(i theta) sqrt(t) phi + sqrt(1-t) chi
with chi in the orthogonal complement, the squared overlap t follows a
Beta(s+1, d-1) law, theta is uniform, and chi is Haar in the complement.
One draw gives all three.  Take a complex Gaussian vector g with N(0, 1)
real and imaginary parts and split it into its phi coordinate c and the
rest h.  |c|^2/2 ~ Gamma(1) with a uniform phase, and |h|^2/2 ~ Gamma(d-1)
independently of h's direction.  Lift c to the real modulus a with
a^2/2 = |c|^2/2 + Gamma(s) ~ Gamma(s+1): the normalised a phi + h then has
t = (a^2/2)/(a^2/2 + |h|^2/2), which is Beta(s+1, d-1) exactly.  c's phase
is dropped: an outcome is read only through |psi><psi|, and h's uniform
phase keeps the relative phases uniform.  There is no rejection step, and
the cost is O(d) per outcome independent of s.

sample_aligned_posterior_states draws psi in coordinates whose first basis
vector is phi, straight into the caller's array and independently of phi.
One rule maps them to C^d: reflect applies the Householder reflection H,
Hermitian and unitary with first column phi up to a phase, at O(d) per
vector.  sample_posterior_states reflects the records themselves; a caller
that reads them only through a few vectors reflects those instead
(aligned_frame, moments.mc_covariances).  Overlaps <psi|v_j> with the r
columns of V need only m = min(d, r + 2) coordinates, drawn at O(r) cost
per outcome: the phi one, r along a basis of the column span of H V without
its first row, and, below d, the rest's norm, lifted as c is to Gamma(d-m+1).

stream_aligned_posterior_states draws a trial's records as consecutive
blocks through one buffer, reused as a ring.  A block of n rows of width m
with 2 n m > CHUNK_FLOATS is split into c row chunks, c the least power of
two with c CHUNK_FLOATS >= 2 n m.  Chunk j is drawn, lifted and normalised
from child j of the stream (spawn key (stream_id, i), i counting the
children the stream has spawned, block by block), so the records depend on
the seed, the stream and the block shapes, never on how many threads draw
them; a block of one chunk comes from the stream itself, as it did before
chunking.  The caller and a module-level pool of one thread fewer than the
cores (created at the first draw that needs it, none on one core; built on
threading and queue.SimpleQueue, which import no logging) claim chunks in
one global order, block after block.  Each chunk is handed to the caller's
reduction on the participant that drew it, and a chunk of the next block
waits only for the chunks of this one that share its rows of the ring, so
no barrier separates the blocks.  numpy's Gaussian and Gamma fills release
the GIL.  The pool shares the cores with OpenBLAS's threads: a complex
product over a few thousand outcome rows wakes OpenBLAS's worker thread,
which then spins on a core the pool would use, so estimators.BatchReduction
reads narrow quadratic batches through a real Gram instead
(QUADRATIC_GRAM_MAX_WIDTH).
"""

from __future__ import annotations

import copy
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .linalg import is_hermitian

PURITY_TOL = 1e-8

# Largest | ||psi|| - 1 | of an outcome state, and | |phi|^2 - 1 | of a sampled one.
UNIT_NORM_TOL = 1e-10

# Largest outcome array, in bytes, that any caller samples at once.
MAX_OUTCOME_BYTES = 2**30

# Outcome rows drawn and reduced per step where a caller streams blocks.
BLOCK_ROWS = 2**12

# Floats per chunk of a sampled block; a larger block is split into chunks,
# each from its own child stream (stream_aligned_posterior_states).
CHUNK_FLOATS = 2**15


@dataclass
class RngStream:
    """One reproducible random stream per Monte Carlo trial.

    Identical (seed, stream_id) pairs reproduce identical sample sequences.
    A stream must not be shared across threads; spawn one per trial.  A
    multi-chunk outcome block (stream_aligned_posterior_states) reads child
    streams of gen, spawn keys (stream_id, i) for the stream's i-th child,
    which no RngStream key (stream_id,) equals; it leaves gen's own state
    as it was.  The caller and the draw pool's threads each read only the
    children of the chunks they draw, so no stream is shared.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.PCG64(ss))


def require_pure_state(rho: np.ndarray) -> np.ndarray:
    """rho as a complex array if it is a pure density matrix, else a ValueError.

    rho must be square, finite, Hermitian, of unit trace and idempotent, each
    to PURITY_TOL; the negated comparisons reject NaN.  The zero matrix fails
    the trace test.  No eigendecomposition is taken.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if not is_hermitian(rho, PURITY_TOL):
        raise ValueError("density matrix must be Hermitian")
    if not abs(np.trace(rho) - 1.0) <= PURITY_TOL:
        raise ValueError("density matrix must have trace 1")
    if not np.abs(rho @ rho - rho).max() <= PURITY_TOL:
        raise ValueError("mixed states are not supported; input must be pure")
    return rho


def pure_state_vector(rho: np.ndarray) -> np.ndarray:
    """The unit vector of a pure density matrix, after require_pure_state."""
    return np.linalg.eigh(require_pure_state(rho))[1][:, -1]


def as_state_vector(state: np.ndarray) -> np.ndarray:
    """The state vector normalized; anything but a finite nonzero vector
    (a matrix, a zero or a non-finite vector) raises ValueError."""
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"expected a state vector, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if not 0 < norm < np.inf:  # zero, NaN, or an entry too large to square
        raise ValueError(f"state vector norm {norm} cannot be normalized")
    return state / norm


def sample_haar_state(d: int, rng: RngStream) -> np.ndarray:
    """A Haar-random unit vector in C^d.

    Normalizing i.i.d. standard complex Gaussians is exactly unitary
    invariant.  The draw is one (1, d) row normalised along its axis, which
    fixes both the stream it consumes and the rounding of its norm.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    require_outcome_budget(16 * d, f"a Haar state in d = {d} would", "use a smaller d")
    z = rng.gen.standard_normal((1, d)) + 1j * rng.gen.standard_normal((1, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z[0]


def sample_posterior_states(phi: np.ndarray, s: int, rng: RngStream, size: int) -> np.ndarray:
    """size outcomes of the joint measurement on phi^(x s); shape (size, d).

    The aligned draw at full width, reflected in place: the same generator
    calls in the same order.  phi must be a unit vector, to UNIT_NORM_TOL.
    """
    if phi.ndim != 1 or not abs(np.vdot(phi, phi).real - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("phi must be a unit vector")
    d = phi.shape[0]
    return reflect(phi, sample_aligned_posterior_states(s, rng, np.empty((size, d), complex), d))


def reflect(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row r of the complex (n, d) array x, or the vector x, replaced in
    place by H r; returns x.  O(d n); columns of M reflect as rows of M.T.

    H = I - 2 u u^H / |u|^2 = I - w w^H, u = phi + e^(i arg phi_0) e_0 and
    w = u / sqrt(1 + |phi_0|), for the unit vector phi: Hermitian, unitary,
    and H e_0 = -e^(-i arg phi_0) phi.  A phi_0 of 0 takes the phase 1.
    """
    p0 = complex(phi[0])
    a = abs(p0)
    w = np.multiply(phi, 1 / math.sqrt(1 + a), dtype=complex)
    w[0] += (p0 / a if a else 1.0) / math.sqrt(1 + a)
    x -= np.multiply.outer(x @ w.conj(), w)
    return x


def sample_aligned_posterior_states(s: int, rng: RngStream, out: np.ndarray, d: int) -> np.ndarray:
    """Fill out, a C-contiguous complex (n, m) array with 2 <= m <= d, with
    n outcomes of the joint measurement on phi^(x s) in C^d, as coordinates
    in a basis whose first vector is phi; returns out.

    Row i is a standard complex Gaussian drawn in place, then normalised on
    the float view (a real divisor).  Before that its first coordinate is
    lifted by k = s, to the phi amplitude.  At m = d its outcome is H row
    (reflect); below d the first m - 1 coordinates are those aligned_frame
    reads, and the last is lifted by k = d - m, to the norm of the rest.
    There is no (n, m) temporary.  This is the one-block stream of
    stream_aligned_posterior_states, with no reduction.
    """
    return stream_aligned_posterior_states(s, rng, out, d, len(out))


def stream_aligned_posterior_states(
    s: int, rng: RngStream, out: np.ndarray, d: int, rows: int, reduce=None
) -> np.ndarray:
    """Draw rows records of sample_aligned_posterior_states's law as
    consecutive blocks of len(out) rows, the last one shorter, each into out,
    which is reused as a ring; returns out.

    A block of more than CHUNK_FLOATS floats is split into row chunks, each
    drawn from a child stream (see the module docstring); a block's children
    are spawned in block order, when its first chunk is claimed, and a
    one-chunk block reads rng itself.  reduce(start, records), if given,
    runs on each chunk as soon as the participant that drew it is done,
    start being the chunk's first row in the stream.  The caller and the
    draw pool claim chunks in one global order, and a chunk starts only once
    every chunk of the previous block that shares a row of out with it has
    been reduced, so no barrier separates the blocks.  A chunk that raises
    stops the stream: no chunk starts after it, the call returns once no
    chunk is running, and the lowest-numbered chunk's exception is raised.
    """
    if out.ndim != 2 or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex (n, m) array")
    _check_outcome_law(d, s)
    n, m = out.shape
    if not 2 <= m <= d:
        raise ValueError(f"records must be 2 to d = {d} wide, not {m}")
    if rows < 0 or (rows and not n):
        raise ValueError(f"cannot stream {rows} records through {n} rows")

    chunks = _chunks(rng, out, rows)
    w = _chunk_count(min(n, rows), m)  # the first block has the most chunks
    w = min(w, _cores()) if w > 1 else 1
    if w == 1:  # the caller alone, in stream order
        for chunk in chunks:
            _run(chunk, s, d, reduce)
    else:
        _share(chunks, n, w, s, d, reduce)
    return out


def _run(chunk: tuple, s: int, d: int, reduce) -> None:
    """Draw a chunk of _chunks, then hand it to reduce if given."""
    start, records, child = chunk
    _draw_chunk(records, s, d, child)
    if reduce is not None:
        reduce(start, records)


def _share(chunks, n: int, w: int, s: int, d: int, reduce) -> None:
    """Run the chunks of a stream through n rows on the caller and w - 1
    threads of the draw pool.  Each takes the next chunk in stream order,
    and draws it once no chunk taken before it that shares a row of the
    ring is still running (stream_aligned_posterior_states)."""
    cond, busy, errors, taken, active = threading.Condition(), {}, {}, 0, w

    def participate():  # the caller's, and each of w - 1 pool threads'
        nonlocal taken, active
        g = -1
        try:
            while True:
                with cond:
                    g, taken = taken, taken + 1  # also the key of an error in next
                    if errors or (chunk := next(chunks, None)) is None:
                        return
                    lo = chunk[0] % n  # the chunk's rows of the ring
                    hi = lo + len(chunk[1])
                    busy[g] = lo, hi
                    cond.wait_for(lambda: errors or not any(
                        a < hi and lo < b for i, (a, b) in busy.items() if i < g))
                    if errors:
                        return
                _run(chunk, s, d, reduce)
                with cond:
                    del busy[g]
                    cond.notify_all()
        except BaseException as e:  # kept for the caller to raise once no chunk runs
            with cond:
                errors[g] = e
        finally:
            with cond:
                active -= 1
                cond.notify_all()

    pool = _pool()
    for _ in range(w - 1):
        pool.submit(participate)
    participate()
    with cond:
        cond.wait_for(lambda: not active)
    if errors:
        raise errors[min(errors)]


def _draw_chunk(out: np.ndarray, s: int, d: int, rng: RngStream) -> None:
    """out's rows drawn from rng: complex Gaussians, lifted and normalised.

    The broadcast division holds a numpy buffer of up to 8192 floats, more
    than a chunk's norms, so one chunk at a time divides (_NORMALISE): with
    every participant dividing at once, those buffers took an im-linear-d64
    trial's tracemalloc peak past 1.5 times its 350 KiB block.
    """
    flat = out.view(float)
    rng.gen.standard_normal(out=flat)
    _lift(out[:, 0], s, rng)
    if out.shape[1] < d:
        _lift(out[:, -1], d - out.shape[1], rng)
    with _NORMALISE:
        norms = np.einsum("ij,ij->i", flat, flat)
        flat /= np.sqrt(norms, out=norms)[:, None]


_NORMALISE = threading.Lock()


def _chunks(rng: RngStream, out: np.ndarray, rows: int):
    """(its first row in the stream, its rows of out, its stream) of each
    chunk of a stream of rows records through out, in stream order.  A
    block's children are spawned when its first chunk is taken."""
    n, m = out.shape
    for start in range(0, rows, max(n, 1)):
        size = min(n, rows - start)
        c = _chunk_count(size, m)
        children = [rng] if c == 1 else _spawn(rng, c)
        for j in range(c):
            lo, hi = j * size // c, (j + 1) * size // c
            yield start + lo, out[lo:hi], children[j]


def _chunk_count(rows: int, m: int) -> int:
    """The chunks of a block of rows records of width m: the least power of
    two c with c CHUNK_FLOATS >= 2 rows m, and at least 1."""
    c = max(1, -(-2 * rows * m // CHUNK_FLOATS))
    return 1 << (c - 1).bit_length()


def _spawn(rng: RngStream, c: int) -> list[RngStream]:
    """rng's next c child streams, each an RngStream with rng's fields."""
    children = []
    for gen in rng.gen.spawn(c):
        child = copy.copy(rng)
        child.gen = gen
        children.append(child)
    return children


def _cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Pool:
    """Daemon threads that each run the callables put on one queue.

    A callable is expected to keep its own exceptions, as participate does;
    one that escapes is reported through sys.excepthook, and the thread goes
    on serving.
    """

    def __init__(self, threads: int):
        import queue  # at the first multi-chunk draw, not at startup

        self._tasks = queue.SimpleQueue()
        for _ in range(threads):
            threading.Thread(target=self._serve, name="shadowlab-draw", daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                self._tasks.get()()
            except Exception:  # a failed task must not take its thread with it
                sys.excepthook(*sys.exc_info())

    def submit(self, fn) -> None:
        self._tasks.put(fn)


_pool_lock = threading.Lock()
_draw_pool = None


def _pool() -> _Pool:
    """The draw pool, one thread fewer than the cores (at least one), created
    at its first use; the lock keeps it one pool when several threads make
    their first multi-chunk draw at once."""
    global _draw_pool
    with _pool_lock:
        if _draw_pool is None:
            _draw_pool = _Pool(max(1, _cores() - 1))
        return _draw_pool


def _forget_pool() -> None:
    """In a forked child, which has none of the pool's threads, and whose
    copies of the locks another thread of the parent may have held."""
    global _draw_pool, _pool_lock, _NORMALISE
    _draw_pool, _pool_lock, _NORMALISE = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def aligned_frame(phi: np.ndarray, vecs: np.ndarray, full: bool = False) -> np.ndarray:
    """The (m, r) frame with which records of sample_aligned_posterior_states
    give the overlaps with the columns of vecs (d, r): records @ frame.conj()
    has the law of sample_posterior_states(phi, ...) @ vecs.conj().

    The full frame (m = d) is H vecs, for H of reflect.  Otherwise m =
    min(d, r + 2): the rows of H vecs after the first become the R factor of
    their QR, over a zero row for the rest coordinate if m has room.  phi is
    validated and normalised by as_state_vector.
    """
    phi = as_state_vector(phi)
    vecs = np.array(vecs, dtype=complex, order="F")  # a copy, its columns the rows of vecs.T
    d = phi.shape[0]
    if vecs.ndim != 2 or vecs.shape[0] != d:
        raise ValueError(f"vecs must have shape ({d}, r), got {vecs.shape}")
    _check_outcome_law(d, 0)
    frame = reflect(phi, vecs.T).T
    if full:
        return frame
    frame = np.vstack([frame[:1], np.linalg.qr(frame[1:], mode="r")])
    m = min(d, vecs.shape[1] + 2)
    return np.vstack([frame, np.zeros((m - frame.shape[0], vecs.shape[1]))])


def require_outcome_budget(nbytes: int, what: str, remedy: str) -> None:
    """ValueError, with the size, unless nbytes fits in MAX_OUTCOME_BYTES."""
    if nbytes > MAX_OUTCOME_BYTES:
        raise ValueError(
            f"{what} need {nbytes / 2**20:.0f} MiB, over the "
            f"{MAX_OUTCOME_BYTES / 2**20:.0f} MiB limit; {remedy}"
        )


def _check_outcome_law(d: int, s: int) -> None:
    if s < 0:
        raise ValueError("s must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")


def _lift(c: np.ndarray, k: int, rng: RngStream) -> None:
    """Each standard complex Gaussian of c, in place, becomes the real modulus
    sqrt(|c|^2 + 2 Gamma(k)), half whose square is Gamma(k + 1); k = 0 draws
    no Gamma.  The arithmetic runs in place: two temporaries of c's length
    at most, since every participant of a stream draws at once."""
    m2 = c.real**2
    m2 += c.imag**2
    if k:
        g = rng.gen.gamma(k, size=m2.shape)
        g *= 2
        m2 += g
    c[:] = np.sqrt(m2, out=m2)
