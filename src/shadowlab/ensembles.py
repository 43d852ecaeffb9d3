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

stream_aligned_posterior_states draws psi in coordinates whose first
basis vector is phi, independently of phi.  One rule maps them to C^d:
reflect applies the Householder reflection H, Hermitian and unitary with
first column phi up to a phase, at O(d) per vector.
sample_posterior_states copies a stream of one-row groups into its array
and reflects the records themselves; a caller that reads them only through
a few vectors reflects those instead (aligned_frame, which the sweeps and
moments.mc_covariances read O's eigenvectors through).
Overlaps <psi|v_j> with the r columns of V need only m = min(d, r + 2)
coordinates, drawn at O(r) cost per outcome: the phi one, r along a basis
of the column span of H V without its first row, and, below d, the rest's
norm, lifted as c is to Gamma(d-m+1).

stream_aligned_posterior_states draws a stream of records in groups of the
caller's size (a batch, a covariance trial, or one row) and hands them to
the caller's reduction chunk by chunk; nothing holds the stream.  Records
that fit in CHUNK_FLOATS floats are one chunk, drawn from the stream's own
generator.  Otherwise a chunk is as many whole groups as fit, the groups
split evenly over the chunks, or one group wider than that, drawn in even
parts, in order, by one participant; the call takes one child (stream_id,
i) of the stream's seed sequence, and part p of chunk j is drawn, lifted and
normalised from the SFC64 generator keyed (stream_id, i, j, p).  So the
records depend on the seed, the stream, the calls before on it and the
group shape, never on how many threads draw them, and a reduction gets
whole groups, or one group's parts in order.

The caller and a module-level pool of one thread fewer than the cores
(created at the first draw that needs it, none on one core; built on
threading and queue.SimpleQueue, which import no logging) claim chunks in
stream order; a stream of one chunk runs on the caller alone.  Each draws
the chunks it claims into a buffer of its own, one part long, and reduces
each there before it claims the next, so a stream holds one part per
participant whatever its length, and no chunk waits for another.
numpy's Gaussian and Gamma fills release the GIL.  The pool shares the
cores with OpenBLAS's threads: a complex product over a few thousand
outcome rows wakes OpenBLAS's worker thread, which then spins on a core the
pool would use, so estimators.BatchReduction reads narrow quadratic batches
through a real Gram instead (QUADRATIC_GRAM_MAX_WIDTH).
"""

from __future__ import annotations

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

# Floats per chunk of a stream (stream_aligned_posterior_states): records
# beyond one chunk are drawn from keyed children of the stream, a chunk each.
CHUNK_FLOATS = 2**15


@dataclass
class RngStream:
    """One reproducible random stream per Monte Carlo trial.

    Identical (seed, stream_id) pairs reproduce identical sample sequences.
    The bit generator is SFC64, seeded from SeedSequence(entropy=seed,
    spawn_key=(stream_id,)): its Gaussian fill, most of every draw's cost, is
    about a fifth cheaper than PCG64's, and spawned children are SFC64 too.
    A stream must not be shared across threads; make one per trial.  A
    stream_aligned_posterior_states call of more than one chunk spawns one
    child of gen's seed sequence, (stream_id, i) for the stream's i-th such
    call, and its chunks read generators keyed (stream_id, i, j, p), which
    no RngStream key (stream_id,) equals; it leaves gen's own state as it
    was.  Each chunk's generators are made by the participant that draws it.
    """

    seed: int
    stream_id: int = 0
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.gen = np.random.Generator(np.random.SFC64(ss))


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

    A stream of size one-row groups at full width, each chunk copied into
    its rows, then reflected in place.  phi must be a unit vector, to
    UNIT_NORM_TOL.
    """
    if phi.ndim != 1 or not abs(np.vdot(phi, phi).real - 1.0) <= UNIT_NORM_TOL:
        raise ValueError("phi must be a unit vector")
    d = phi.shape[0]
    out = np.empty((size, d), complex)

    def copy(g0, g1, parts):  # groups of one row: rows g0 to g1, in one part
        out[g0:g1] = next(parts)

    stream_aligned_posterior_states(s, rng, d, d, size, 1, copy)
    return reflect(phi, out)


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


def stream_aligned_posterior_states(
    s: int, rng: RngStream, d: int, m: int, groups: int, group_rows: int, reduce
) -> None:
    """Draw groups groups of group_rows outcomes of the joint measurement on
    phi^(x s) in C^d, as m-wide records (2 <= m <= d, the module docstring's
    aligned coordinates), and hand each chunk to reduce(g0, g1, parts): its
    groups g0 to g1, as an iterator of record arrays whose rows, in stream
    order, are those groups' (one array unless one group is wider than a
    chunk); each array is valid only until the next is taken.

    The chunks are those of _chunks (see the module docstring), run by
    _share on one participant per core, and no more than there are chunks:
    the caller and threads of the draw pool.  Each draws every part of a
    chunk it takes into a buffer of its own, one part long, which is then
    reused.  A chunk that raises stops the stream: no chunk is taken after
    it, the call returns once no chunk is running, and the lowest-numbered
    chunk's exception is raised.
    """
    _check_outcome_law(d, s, m)
    if groups < 0 or group_rows < 1:
        raise ValueError(f"cannot stream {groups} groups of {group_rows} records")
    count, longest, chunks = _chunks(rng, groups, group_rows, m)

    def participant():
        buf = np.empty((longest, m), dtype=complex)

        def run(g0, g1, parts):
            reduce(g0, g1, (_draw_chunk(buf[:hi - lo], s, d, _generator(rng, key))
                            for lo, hi, key in parts))
        return run

    # at least the caller, so that a stream of no chunks still ends
    _share(chunks, max(1, min(count, _cores())), participant)


def _share(chunks, w: int, participant) -> None:
    """Run the chunks on the caller and w - 1 threads of the draw pool, each
    taking the next chunk in stream order until none is left or one has
    raised (stream_aligned_posterior_states).  At w = 1 the caller runs
    every chunk, and no pool is asked for."""
    cond, errors, taken, active = threading.Condition(), {}, 0, w

    def participate():  # the caller's, and each of w - 1 pool threads'
        nonlocal taken, active
        g = -1
        try:
            run = participant()
            while True:
                with cond:
                    g, taken = taken, taken + 1  # also the key of an error in next
                    if errors or (chunk := next(chunks, None)) is None:
                        return
                run(*chunk)
        except BaseException as e:  # kept for the caller to raise once no chunk runs
            with cond:
                errors[g] = e
        finally:
            with cond:
                active -= 1
                cond.notify_all()

    for _ in range(w - 1):
        _pool().submit(participate)
    participate()
    with cond:
        cond.wait_for(lambda: not active)
    if errors:
        raise errors[min(errors)]


def _draw_chunk(out: np.ndarray, s: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """out's rows drawn from gen: complex Gaussians, lifted and normalised;
    returns out."""
    flat = out.view(float)
    gen.standard_normal(out=flat)
    _lift(out[:, 0], s, gen)
    if out.shape[1] < d:
        _lift(out[:, -1], d - out.shape[1], gen)
    norms = np.einsum("ij,ij->i", flat, flat)
    flat *= np.divide(1.0, np.sqrt(norms, out=norms), out=norms)[:, None]
    return out


def _chunks(rng: RngStream, groups: int, group_rows: int, m: int):
    """(count, longest, chunks) of a stream of groups groups of group_rows
    records of width m: chunks yields each of its count chunks in stream
    order as (g0, g1, parts), for its groups g0 to g1 and the (first row,
    end row, spawn key) of each of its parts, the key None for the stream's
    own generator; no part has more than longest rows.  Records that fit in
    one chunk are that chunk, on rng.gen.  Otherwise the call spawns one
    child of rng's seed sequence, (stream_id, i), and part p of chunk j
    reads the key (stream_id, i, j, p): a chunk is as many whole groups as
    fit, the groups split evenly over the fewest such chunks, or one group
    wider than a chunk in the fewest even parts that fit."""
    rows, fit = groups * group_rows, CHUNK_FLOATS // (2 * m)  # fit: the rows of a chunk
    if rows <= fit:
        chunks = [(0, groups, [(0, rows, None)])] if rows else []
        return len(chunks), rows, iter(chunks)
    call = rng.gen.bit_generator.seed_seq.spawn(1)[0].spawn_key
    if group_rows <= fit:
        c, q = -(-groups // (fit // group_rows)), 1
    else:
        c, q = groups, -(-group_rows // max(fit, 1))

    def chunks():
        for j in range(c):
            g0, g1 = j * groups // c, (j + 1) * groups // c
            lo, size = g0 * group_rows, (g1 - g0) * group_rows
            yield g0, g1, [(lo + p * size // q, lo + (p + 1) * size // q, (*call, j, p))
                           for p in range(q)]

    return c, -(-(-(-groups // c) * group_rows) // q), chunks()


def _generator(rng: RngStream, key) -> np.random.Generator:
    """rng.gen for the key None, else the SFC64 generator of rng's seed at
    spawn key key."""
    if key is None:
        return rng.gen
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(rng.seed, spawn_key=key)))


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
    copy of the lock another thread of the parent may have held."""
    global _draw_pool, _pool_lock
    _draw_pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def aligned_frame(phi: np.ndarray, vecs: np.ndarray, full: bool = False) -> np.ndarray:
    """The (m, r) frame with which the m-wide records of
    stream_aligned_posterior_states give the overlaps with the columns of
    vecs (d, r): records @ frame.conj() has the law of
    sample_posterior_states(phi, ...) @ vecs.conj().

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


def _check_outcome_law(d: int, s: int, m: int = 2) -> None:
    if s < 0:
        raise ValueError("s must be >= 0")
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 2 <= m <= d:
        raise ValueError(f"records must be 2 to d = {d} wide, not {m}")


def _lift(c: np.ndarray, k: int, gen: np.random.Generator) -> None:
    """Each standard complex Gaussian of c, in place, becomes the real modulus
    sqrt(|c|^2 + 2 Gamma(k)), half whose square is Gamma(k + 1); k = 0 draws
    no Gamma.  The arithmetic runs in place: two temporaries of c's length
    at most, since every participant of a stream draws at once."""
    m2 = c.real**2
    m2 += c.imag**2
    if k:
        g = gen.gamma(k, size=m2.shape)
        g *= 2
        m2 += g
    c[:] = np.sqrt(m2, out=m2)
