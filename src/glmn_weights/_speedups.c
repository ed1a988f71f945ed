/*
 * Compiled scan kernels for the exhaustive verification loops.
 *
 * Same API and failure payloads as the pure backend (_pykernels); selected
 * at import time by glmn_weights.kernels when the extension is built.  A
 * weight lives in one C long buffer (lambda first, then theta) and is walked
 * with an odometer, so the hot loop allocates nothing until a counterexample
 * shows up.  Every scan visits dominant weights only (next_dominant), in the
 * same lexicographic order as the pure backend: the image, order and trace
 * scans those of the box, the theorem scan those of the box and of the box
 * widened upward in lambda that holds every dominant preimage of a box
 * weight.  The order scan walks, on each weight, the lattice table it is
 * given (serganova.ideal_lattice), one state per order ideal, exactly as
 * the pure scan does.  Totals, failures and their order equal the pure
 * backend's.
 *
 * The kernels compute in C long on at most MAXN coordinates.  Every scan
 * refuses, with OverflowError and before it visits a weight, a rank with
 * more than MAXN coordinates or MAXSTEPS steps, a modulus or box bound outside
 * C long and any box whose coordinates, moved by the transform and summed
 * over a weight, could leave it; glmn_weights.oracle then runs pure instead.
 *
 * Build: python setup.py build_ext --inplace (a C compiler is all it needs).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdarg.h>
#include <string.h>

#define MAXN 64
#define MAXSTEPS 2080 /* excess-pair count M*(M+1)/2 for M = 63 */
#define TOO_MANY_STEPS "too many steps for the compiled backend"

/* ---- arithmetic on one weight: lambda = w[0..M), theta = w[M..M+N) ---- */

static inline int
congruent(long s, long p)
{
    return p == 0 ? s == 0 : s % p == 0;
}

static inline int
non_increasing(const long *a, Py_ssize_t n)
{
    for (Py_ssize_t k = 1; k < n; k++)
        if (a[k - 1] < a[k])
            return 0;
    return 1;
}

static inline int
dominant(const long *w, Py_ssize_t M, Py_ssize_t N)
{
    return non_increasing(w, M) && non_increasing(w + M, N);
}

/* Adjacent equal chain entries force the diagonal sum to vanish. */
static inline int
vanishing(const long *w, Py_ssize_t M, long p)
{
    const long *theta = w + M;

    for (Py_ssize_t i = 0; i < M; i++)
        if (theta[i] == theta[i + 1] && !congruent(theta[i] + w[i], p))
            return 0;
    for (Py_ssize_t i = 1; i < M; i++)
        if (w[i - 1] == w[i] && !congruent(theta[i] + w[i], p))
            return 0;
    return 1;
}

static inline int
mixed(const long *w, Py_ssize_t M, Py_ssize_t N, long p)
{
    return dominant(w, M, N) && vanishing(w, M, p);
}

static inline int
equal(const long *a, const long *b, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k++)
        if (a[k] != b[k])
            return 0;
    return 1;
}

/* Copy the coordinates of src to dst four at a time: fixed-size copies the
   compiler inlines, where a call to memcpy costs more than the copy.  MAXN
   is a multiple of four, so this stays inside the buffers. */
static inline void
copy(long *dst, const long *src, Py_ssize_t n)
{
    for (Py_ssize_t k = 0; k < n; k += 4)
        memcpy(dst + k, src + k, 4 * sizeof(long));
}

/* Summed modulo 2^64, so a partial sum may wrap: the total is exact
   whenever it fits in a long, as the sum of a weight does. */
static inline long
sum(const long *a, Py_ssize_t n)
{
    unsigned long s = 0;
    for (Py_ssize_t k = 0; k < n; k++)
        s += (unsigned long)a[k];
    return (long)s;
}

/* One step of the transform on the buffer positions a (lambda_i) and b
   (theta_j): unless lambda_i + theta_j vanishes mod p, move one unit from
   lambda_i to theta_j (dir = 1, forward) or back (dir = -1, inverse). */
static inline void
step(long *w, long p, int a, int b, long dir)
{
    if (!congruent(w[a] + w[b], p)) {
        w[a] -= dir;
        w[b] += dir;
    }
}

static inline void
forward(long *w, long p, const int *si, const int *sj, Py_ssize_t ns)
{
    for (Py_ssize_t k = 0; k < ns; k++)
        step(w, p, si[k], sj[k], 1);
}

static inline void
inverse(long *w, long p, const int *si, const int *sj, Py_ssize_t ns)
{
    for (Py_ssize_t k = ns - 1; k >= 0; k--)
        step(w, p, si[k], sj[k], -1);
}

/* Set coords to the first weight of the box, every entry lo, which is also
   its first dominant weight.  All MAXN entries are set, so that copy()
   reads only defined values. */
static inline void
first_weight(long *coords, long lo)
{
    for (Py_ssize_t k = 0; k < MAXN; k++)
        coords[k] = lo;
}

/* Move the n = M + N coordinates to the next dominant weight (lambda =
   coords[0..M) and theta = coords[M..n) both non-increasing) of the box
   with lambda in [lo, top] and theta in [lo, hi], in lexicographic order;
   return 0 after the last one.  Coordinate k is bounded by coordinate
   k - 1 of its chain, or by top or hi at the head of a chain; every
   coordinate after the one incremented is reset to lo. */
static inline int
next_dominant(long *coords, Py_ssize_t M, Py_ssize_t n, long lo, long hi, long top)
{
    for (Py_ssize_t k = n - 1; k >= 0; k--) {
        if (coords[k] < (k == M ? hi : k == 0 ? top : coords[k - 1])) {
            coords[k]++;
            return 1;
        }
        coords[k] = lo;
    }
    return 0;
}

/* ---- arguments and results ---- */

static unsigned long
magnitude(long x)
{
    return x < 0 ? 0UL - (unsigned long)x : (unsigned long)x;
}

/* Check the rank and the box of a scan.  Each transform step moves a
   coordinate by one unit and a coordinate takes part in at most M steps of
   a linear extension, and the odometer never passes hi, so every
   coordinate, diagonal sum and weight sum stays below
   (M+N) * (max(|lo|, |hi|) + M + 1) in magnitude; refuse the box when that
   reaches LONG_MAX + 1.  Other step lists, and the chains of edges of a
   lattice table (load_ideals bounds their length), move a coordinate by
   at most MAXSTEPS units, which the coordinates and diagonal sums still absorb
   (they stay below LONG_MAX / 3 + MAXSTEPS when M > 0), and the sum of a
   weight is conserved.  The magnitudes are unsigned because |LONG_MIN| is
   not a long. */
static int
check_box(Py_ssize_t M, Py_ssize_t N, long lo, long hi)
{
    unsigned long reach;

    if (M < 0 || N < 1 || M >= N) {
        PyErr_Format(PyExc_ValueError, "invalid rank (%zd|%zd)", M, N);
        return -1;
    }
    if (M + N > MAXN) {
        PyErr_Format(PyExc_OverflowError,
                     "compiled backend supports M+N <= %d, got %zd; use the pure backend",
                     MAXN, M + N);
        return -1;
    }
    if (lo > hi) {
        PyErr_Format(PyExc_ValueError, "box requires lo <= hi, got %ld:%ld", lo, hi);
        return -1;
    }
    reach = Py_MAX(magnitude(lo), magnitude(hi)) + (unsigned long)M + 1;
    if (reach > (unsigned long)LONG_MAX / (unsigned long)(M + N)) {
        PyErr_Format(PyExc_OverflowError,
                     "box %ld:%ld at rank (%zd|%zd) can leave C long; use the pure backend",
                     lo, hi, M, N);
        return -1;
    }
    return 0;
}

/* Read the excess pairs (i, j), 1 <= j <= i <= M, of steps into buffer
   positions: lambda_i at i - 1, theta_j at M + j - 1.  Return the number of
   steps, or -1 with an exception set (OverflowError TOO_MANY_STEPS past max:
   the pure backend has no such bound). */
static Py_ssize_t
load_steps(PyObject *steps, Py_ssize_t M, int *si, int *sj, Py_ssize_t max)
{
    PyObject *it, *pair, *v;
    Py_ssize_t k = 0;
    long ij[2];

    if ((it = PyObject_GetIter(steps)) == NULL)
        return -1;
    while ((pair = PyIter_Next(it)) != NULL) {
        if (k == max)
            PyErr_SetString(PyExc_OverflowError, TOO_MANY_STEPS);
        else if (PySequence_Size(pair) != 2 && !PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "steps must be (i, j) pairs");
        for (int e = 0; e < 2 && !PyErr_Occurred(); e++) {
            v = PySequence_GetItem(pair, e);
            ij[e] = v == NULL ? -1 : PyLong_AsLong(v);
            Py_XDECREF(v);
        }
        if (!PyErr_Occurred() && (ij[1] < 1 || ij[1] > ij[0] || ij[0] > M))
            PyErr_Format(PyExc_ValueError, "step (%ld, %ld) is not an excess pair for M=%zd",
                         ij[0], ij[1], M);
        Py_DECREF(pair);
        if (PyErr_Occurred())
            break;
        si[k] = (int)(ij[0] - 1);
        sj[k] = (int)(M + ij[1] - 1);
        k++;
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? -1 : k;
}

static PyObject *
as_tuple(const long *a, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n), *v;

    for (Py_ssize_t k = 0; t != NULL && k < n; k++) {
        if ((v = PyLong_FromLong(a[k])) == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, k, v);
    }
    return t;
}

/* Append (kind, lambda, theta, *tail) to failures while fewer than cap are
   kept; tail_fmt is a Py_BuildValue tuple format such as "()" or "(n)".
   Return -1 with an exception set on error. */
static int
note(PyObject *failures, Py_ssize_t cap, const char *kind, const long *w, Py_ssize_t M,
     Py_ssize_t N, const char *tail_fmt, ...)
{
    PyObject *head, *tail, *item;
    va_list va;
    int rc;

    if (PyList_GET_SIZE(failures) >= cap)
        return 0;
    va_start(va, tail_fmt);
    tail = Py_VaBuildValue(tail_fmt, va);
    va_end(va);
    head = Py_BuildValue("(sNN)", kind, as_tuple(w, M), as_tuple(w + M, N));
    item = head != NULL && tail != NULL ? PySequence_Concat(head, tail) : NULL;
    Py_XDECREF(head);
    Py_XDECREF(tail);
    if (item == NULL)
        return -1;
    rc = PyList_Append(failures, item);
    Py_DECREF(item);
    return rc;
}

/* ---- the scans ---- */

static PyObject *
scan_image(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns, cap;
    long p, lo, hi, total = 0;
    PyObject *steps, *failures;
    int si[MAXSTEPS], sj[MAXSTEPS];
    long coords[MAXN], work[MAXN];

    if (!PyArg_ParseTuple(args, "nnlllOn:scan_image", &M, &N, &p, &lo, &hi, &steps, &cap)
        || check_box(M, N, lo, hi) < 0
        || (ns = load_steps(steps, M, si, sj, MAXSTEPS)) < 0)
        return NULL;
    if ((failures = PyList_New(0)) == NULL)
        return NULL;
    n = M + N;
    first_weight(coords, lo);
    /* Every mixed weight is dominant, so the dominant weights of the box
       hold its whole mixed set: those that also pass vanishing(). */
    do {
        total++;
        copy(work, coords, n);
        forward(work, p, si, sj, ns);
        if (!mixed(work, M, N, p)
            && note(failures, cap, "forward_not_in_mixed", coords, M, N, "()") < 0)
            goto fail;
        inverse(work, p, si, sj, ns);
        if (!equal(work, coords, n)
            && note(failures, cap, "inverse_forward_roundtrip", coords, M, N, "()") < 0)
            goto fail;
        if (vanishing(coords, M, p)) {
            total++;
            copy(work, coords, n);
            inverse(work, p, si, sj, ns);
            if (!dominant(work, M, N)
                && note(failures, cap, "inverse_not_in_dominant", coords, M, N, "()") < 0)
                goto fail;
            forward(work, p, si, sj, ns);
            if (!equal(work, coords, n)
                && note(failures, cap, "forward_inverse_roundtrip", coords, M, N, "()") < 0)
                goto fail;
        }
    } while (next_dominant(coords, M, n, lo, hi, hi));
    return Py_BuildValue("(lN)", total, failures);
fail:
    Py_DECREF(failures);
    return NULL;
}

/* Whether w is in the image of the dominant set by the membership test:
   its inverse is dominant and maps forward onto w again. */
static inline int
member(const long *w, Py_ssize_t M, Py_ssize_t N, long p, const int *si, const int *sj,
       Py_ssize_t ns)
{
    long a[MAXN];

    copy(a, w, M + N);
    inverse(a, p, si, sj, ns);
    if (!dominant(a, M, N))
        return 0;
    forward(a, p, si, sj, ns);
    return equal(a, w, M + N);
}

static inline int
in_box(const long *w, Py_ssize_t n, long lo, long hi)
{
    for (Py_ssize_t k = 0; k < n; k++)
        if (w[k] < lo || w[k] > hi)
            return 0;
    return 1;
}

/* The walks, their argument and the failure order are those of the theorem
   check in the glmn_weights.oracle module docstring, and the totals those
   of the pure scan_theorem.  Two tests of the pure scan cannot fail here
   and are left out: every hit pulls back, since forward and inverse here
   undo each other step by step; and no non-dominant neighbour is accepted,
   since the relevance predicate in the non-increasing convention (both
   chains non-increasing, and the diagonal sum vanishing wherever adjacent
   chain entries are equal) is exactly the mixed condition, which tests the
   chains first. */
static PyObject *
scan_theorem(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns, cap;
    long p, lo, hi, top, total = 0, hits = 0, accepted = 0;
    PyObject *steps, *failures;
    int si[MAXSTEPS], sj[MAXSTEPS];
    long coords[MAXN], work[MAXN];

    if (!PyArg_ParseTuple(args, "nnlllOn:scan_theorem", &M, &N, &p, &lo, &hi, &steps, &cap)
        || check_box(M, N, lo, hi) < 0
        || (ns = load_steps(steps, M, si, sj, MAXSTEPS)) < 0)
        return NULL;
    if ((failures = PyList_New(0)) == NULL)
        return NULL;
    n = M + N;
    top = hi;
    for (Py_ssize_t k = 0; k < ns; k++)
        top += si[k] == 0; /* i = 1 forces j = 1 */
    first_weight(coords, lo);
    do {
        total++;
        copy(work, coords, n);
        forward(work, p, si, sj, ns);
        if (!in_box(work, n, lo, hi))
            continue;
        if (mixed(work, M, N, p))
            hits++;
        else if (note(failures, cap, "theorem_mismatch", work, M, N, "(OO)", Py_False, Py_True)
                 < 0)
            goto fail;
    } while (next_dominant(coords, M, n, lo, hi, top));
    first_weight(coords, lo);
    do {
        total++;
        accepted += mixed(coords, M, N, p);
    } while (next_dominant(coords, M, n, lo, hi, hi));
    if (hits != accepted || PyList_GET_SIZE(failures) > 0) {
        first_weight(coords, lo);
        do {
            if (mixed(coords, M, N, p) && !member(coords, M, N, p, si, sj, ns)
                && note(failures, cap, "theorem_mismatch", coords, M, N, "(OO)", Py_True,
                        Py_False) < 0)
                goto fail;
        } while (next_dominant(coords, M, n, lo, hi, hi));
        if (PyList_GET_SIZE(failures) == 0) {
            PyErr_Format(PyExc_RuntimeError,
                         "theorem scan: %ld image weights but %ld relevant ones, and no weight "
                         "on which the two sides disagree (a preimage outside the walk)",
                         hits, accepted);
            goto fail;
        }
    }
    return Py_BuildValue("(lN)", total, failures);
fail:
    Py_DECREF(failures);
    return NULL;
}

#define EDGE_SHAPE "an edge must be (ideal, below, (i, j))"

/* Read one edge of a lattice table, any sequence (ideal, below, pair), into
   *ideal and *below, and return a new one-step list holding its pair; NULL
   with an exception set on error. */
static PyObject *
read_edge(PyObject *obj, long *ideal, long *below)
{
    PyObject *item = PySequence_Fast(obj, EDGE_SHAPE), *one = NULL;

    if (item == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(item) != 3)
        PyErr_SetString(PyExc_ValueError, EDGE_SHAPE);
    else {
        *ideal = PyLong_AsLong(PySequence_Fast_GET_ITEM(item, 0));
        *below = PyErr_Occurred() ? 0 : PyLong_AsLong(PySequence_Fast_GET_ITEM(item, 1));
        if (!PyErr_Occurred())
            one = PyTuple_Pack(1, PySequence_Fast_GET_ITEM(item, 2));
    }
    Py_DECREF(item);
    return one;
}

/* Read the lattice table into edge[5 * e ...]: ideal I, ideal J = I - x,
   the buffer positions of lambda_i and theta_j of the pair x = (i, j), and
   whether the edge is the first of I.  The rules are those of the pure
   backend (_pykernels._load_ideals): 0 <= J < I, I equal to the ideal of
   the edge before (0 before the first) or one past it, and (i, j) an
   excess pair for M.  A state is reached from the weight by at most
   MAXSTEPS steps, as check_box assumes: a table with a longer chain of
   edges is refused with OverflowError.  Return the number of edges, or -1
   with an exception set (*edge is then freed by the caller). */
static Py_ssize_t
load_ideals(PyObject *seq, Py_ssize_t M, int **edge)
{
    Py_ssize_t ne = PySequence_Fast_GET_SIZE(seq), rc = ne;
    long ideal, below, last = 0;
    int si[1], sj[1], *depth;
    PyObject *one;

    *edge = PyMem_New(int, 5 * ne + 1);
    depth = PyMem_New(int, ne + 1);
    if (*edge == NULL || depth == NULL) {
        PyMem_Free(depth);
        PyErr_NoMemory();
        return -1;
    }
    depth[0] = 0;
    for (Py_ssize_t e = 0; e < ne && rc >= 0; e++) {
        int *ed = *edge + 5 * e;

        if ((one = read_edge(PySequence_Fast_GET_ITEM(seq, e), &ideal, &below)) == NULL) {
            rc = -1;
            break;
        }
        if (!(0 <= below && below < ideal && last <= ideal && ideal <= last + 1)) {
            PyErr_Format(PyExc_ValueError,
                         "edge (%ld, %ld) does not follow the ideals before it", ideal, below);
            rc = -1;
        }
        else if (load_steps(one, M, si, sj, 1) < 0)
            rc = -1;
        Py_DECREF(one);
        if (rc < 0)
            break;
        ed[0] = (int)ideal;
        ed[1] = (int)below;
        ed[2] = si[0];
        ed[3] = sj[0];
        ed[4] = ideal != last;
        if (ed[4] || depth[ideal] < depth[below] + 1)
            depth[ideal] = depth[below] + 1;
        if (depth[ideal] > MAXSTEPS) {
            PyErr_SetString(PyExc_OverflowError,
                            "lattice table too deep for the compiled backend; use the pure backend");
            rc = -1;
        }
        last = ideal;
    }
    PyMem_Free(depth);
    return rc;
}

/* The lattice walk of the pure scan_order, on the same table: per weight,
   the state of ideal 0 is the weight, the first edge (I, J, x) of I sets
   the state of I to that of J stepped at x, every further edge of I must
   give the same state, and the state of the last ideal must equal forward
   under steps.  States are kept stride coordinates apart, a multiple of
   four, so that copy() stays inside them. */
static PyObject *
scan_order(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns, ne, cap, stride, top;
    long p, lo, hi, total = 0;
    PyObject *steps, *ideals, *seq = NULL, *failures = NULL;
    int si[MAXSTEPS], sj[MAXSTEPS], *edge = NULL;
    long coords[MAXN], work[MAXN], *state = NULL;

    if (!PyArg_ParseTuple(args, "nnlllOOn:scan_order", &M, &N, &p, &lo, &hi, &steps, &ideals,
                          &cap)
        || check_box(M, N, lo, hi) < 0
        || (ns = load_steps(steps, M, si, sj, MAXSTEPS)) < 0)
        return NULL;
    if ((seq = PySequence_Fast(ideals, "the lattice table must be a sequence of edges")) == NULL)
        return NULL;
    if ((ne = load_ideals(seq, M, &edge)) < 0)
        goto fail;
    n = M + N;
    stride = (n + 3) / 4 * 4;
    top = ne > 0 ? edge[5 * (ne - 1)] : 0;
    if ((state = PyMem_New(long, (top + 1) * stride)) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if ((failures = PyList_New(0)) == NULL)
        goto fail;
    first_weight(coords, lo);
    do {
        copy(state, coords, n);
        for (Py_ssize_t e = 0; e < ne; e++) {
            const int *ed = edge + 5 * e;
            long *dst = ed[4] ? state + ed[0] * stride : work;

            copy(dst, state + ed[1] * stride, n);
            step(dst, p, ed[2], ed[3], 1);
            if (!ed[4] && !equal(work, state + ed[0] * stride, n)
                && note(failures, cap, "order_mismatch", coords, M, N, "(n)", e) < 0)
                goto fail;
        }
        copy(work, coords, n);
        forward(work, p, si, sj, ns);
        if (!equal(work, state + top * stride, n)
            && note(failures, cap, "order_mismatch", coords, M, N, "(n)", ne) < 0)
            goto fail;
        total += ne + 1;
    } while (next_dominant(coords, M, n, lo, hi, hi));
    PyMem_Free(edge);
    PyMem_Free(state);
    Py_DECREF(seq);
    return Py_BuildValue("(lN)", total, failures);
fail:
    PyMem_Free(edge);
    PyMem_Free(state);
    Py_DECREF(seq);
    Py_XDECREF(failures);
    return NULL;
}

static const char *const TRACE_KINDS[2][4] = {
    {"lambda_monotone_v1", "sum_conservation_v1", "congruence_memory_v1", "dummy_theta_v1"},
    {"theta_monotone_v2", "sum_conservation_v2", "congruence_memory_v2", "dummy_theta_v2"},
};

static PyObject *
scan_trace(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns[2], cap;
    long p, lo, hi, base, before, total = 0;
    PyObject *steps[2], *failures;
    int si[2][MAXSTEPS], sj[2][MAXSTEPS];
    long coords[MAXN], work[MAXN];

    if (!PyArg_ParseTuple(args, "nnlllOOn:scan_trace", &M, &N, &p, &lo, &hi, &steps[0],
                          &steps[1], &cap)
        || check_box(M, N, lo, hi) < 0)
        return NULL;
    for (int tag = 0; tag < 2; tag++)
        if ((ns[tag] = load_steps(steps[tag], M, si[tag], sj[tag], MAXSTEPS)) < 0)
            return NULL;
    if ((failures = PyList_New(0)) == NULL)
        return NULL;
    n = M + N;
    first_weight(coords, lo);
    do {
        total++;
        base = sum(coords, n);
        /* v1 keeps lambda non-increasing, v2 the first M+1 theta entries */
        for (int tag = 0; tag < 2; tag++) {
            const char *const *kind = TRACE_KINDS[tag];
            const long *chain = tag == 0 ? work : work + M;
            Py_ssize_t chain_len = tag == 0 ? M : M + 1;

            copy(work, coords, n);
            for (Py_ssize_t k = 0; k < ns[tag]; k++) {
                int a = si[tag][k], b = sj[tag][k];

                before = work[a] + work[b];
                step(work, p, a, b, 1);
                if ((!non_increasing(chain, chain_len)
                     && note(failures, cap, kind[0], coords, M, N, "(n)", k + 1) < 0)
                    || (sum(work, n) != base
                        && note(failures, cap, kind[1], coords, M, N, "(n)", k + 1) < 0)
                    || (!congruent(work[a] + work[b] - before, p)
                        && note(failures, cap, kind[2], coords, M, N, "(n)", k + 1) < 0)
                    || (!equal(work + 2 * M + 1, coords + 2 * M + 1, N - M - 1)
                        && note(failures, cap, kind[3], coords, M, N, "(n)", k + 1) < 0))
                    goto fail;
            }
        }
    } while (next_dominant(coords, M, n, lo, hi, hi));
    return Py_BuildValue("(lN)", total, failures);
fail:
    Py_DECREF(failures);
    return NULL;
}

/* ---- the module ---- */

static PyMethodDef methods[] = {
    {"scan_image", scan_image, METH_VARARGS,
     "scan_image($module, M, N, p, lo, hi, steps, failure_cap, /)\n--\n\n"
     "One pass over the dominant weights of the box checking both directions of\n"
     "the set equality."},
    {"scan_theorem", scan_theorem, METH_VARARGS,
     "scan_theorem($module, M, N, p, lo, hi, steps, failure_cap, /)\n--\n\n"
     "Predicate vs algorithm, over dominant chains of the box and of a widened box."},
    {"scan_order", scan_order, METH_VARARGS,
     "scan_order($module, M, N, p, lo, hi, steps, ideals, failure_cap, /)\n--\n\n"
     "The lattice of order ideals walked on dominant weights, its top vs forward."},
    {"scan_trace", scan_trace, METH_VARARGS,
     "scan_trace($module, M, N, p, lo, hi, steps_v1, steps_v2, failure_cap, /)\n--\n\n"
     "Per-step invariants over both canonical orders, on dominant weights."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups = {
    PyModuleDef_HEAD_INIT,
    .m_name = "glmn_weights._speedups",
    .m_doc = "Compiled scan kernels for the exhaustive verification loops.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *m = PyModule_Create(&speedups);

    if (m != NULL && PyModule_AddStringConstant(m, "name", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
