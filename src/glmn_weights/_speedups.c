/*
 * Compiled scan kernels for the exhaustive verification loops.
 *
 * The hot loops of the pure scans (_pykernels), whose _check, _load_steps
 * and _load_ideals read the arguments of every scan, so both backends
 * refuse the same arguments with the same error.  A scan takes the
 * arguments of its pure twin but the failure cap and gives (total, failed),
 * the pure total and whether the check failed; glmn_weights.kernels has
 * the pure scan name the failures of a failing one.  A weight lives in one
 * C long buffer (lambda first, then theta) and is walked with an odometer,
 * so the hot loop allocates nothing.  Every scan visits dominant weights
 * only (next_dominant), in the lexicographic order of the pure backend:
 * those of the box, and for the theorem scan also those of the box widened
 * upward in lambda that holds every dominant preimage of a box weight.
 *
 * A scan runs one step rule, step() below, and tests only what it can get
 * wrong on a step list the loaders accept; the pure scans test the rest.
 * A step at buffer positions a < M <= b keeps w[a] + w[b], so the inverse
 * step at the same pair takes the same branch and undoes it, whatever the
 * step list: image leaves out both round trips, and theorem the pull-back
 * of a hit.  The weight sum and the diagonal sum never change, and
 * _load_steps admits only j <= i <= M, so theta_{M+1..N} never move: trace
 * tests only the chains.  Theorem also asks no non-dominant neighbour:
 * relevance in the non-increasing convention is the mixed condition, which
 * tests the chains first.  A broken lattice table or step list can fail
 * every comparison of the order scan, which leaves nothing out.
 *
 * The kernels compute in C long on at most MAXN coordinates.  Every scan
 * refuses, with OverflowError and before it visits a weight, a rank with
 * more than MAXN coordinates or MAXSTEPS steps, a modulus or box bound
 * outside C long and any box whose coordinates, moved by the transform,
 * could leave it; glmn_weights.oracle then runs pure instead.
 *
 * Build: python setup.py build_ext --inplace (a C compiler is all it needs).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

#define MAXN 64
/* A bound on the step buffers, not on a rank: M+N <= MAXN and M < N give
   M <= 31, whose linear extensions have 496 steps; MAXSTEPS also holds step
   lists with repeats. */
#define MAXSTEPS 2080
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

static PyObject *pykernels; /* glmn_weights._pykernels: what a scan accepts */

/* Call glmn_weights._pykernels.<name>(*args), stealing args: a new
   reference, or NULL with an exception set. */
static PyObject *
call_pure(const char *name, PyObject *args)
{
    PyObject *fn = PyObject_GetAttrString(pykernels, name), *rc;

    rc = fn == NULL || args == NULL ? NULL : PyObject_Call(fn, args, NULL);
    Py_XDECREF(fn);
    Py_XDECREF(args);
    return rc;
}

static unsigned long
magnitude(long x)
{
    return x < 0 ? 0UL - (unsigned long)x : (unsigned long)x;
}

/* Check the rank, modulus and box, the first five args of a scan, with
   _pykernels._check before C parses them: 0, or -1 with its error set. */
static int
check_args(PyObject *args)
{
    PyObject *rc = call_pure("_check", PyTuple_GetSlice(args, 0, 5));

    Py_XDECREF(rc);
    return rc == NULL ? -1 : 0;
}

/* Refuse a rank or box beyond the bounds of C.  A transform step moves a
   coordinate by one unit, a coordinate takes part in at most M steps of a
   linear extension, and the odometer never passes hi, so every coordinate
   and diagonal sum stays below (M+N) * (max(|lo|, |hi|) + M + 1) in
   magnitude: refuse the box when that reaches LONG_MAX + 1.  Other step
   lists, and the chains of edges of a lattice table (load_ideals bounds
   their length), move a coordinate by at most MAXSTEPS units, which the
   coordinates and diagonal sums still absorb (they stay below
   LONG_MAX / 3 + MAXSTEPS when M > 0).  The magnitudes are unsigned
   because |LONG_MIN| is not a long. */
static int
check_box(Py_ssize_t M, Py_ssize_t N, long lo, long hi)
{
    unsigned long reach;

    if (M + N > MAXN) {
        PyErr_Format(PyExc_OverflowError,
                     "compiled backend supports M+N <= %d, got %zd; use the pure backend",
                     MAXN, M + N);
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

/* Store the indices (a, b) of lambda_{a+1} and theta_{b+1}, as a loader
   gives them, as buffer positions: *si = a and *sj = M + b.  The loaders
   hold the rules of a step; this only guards the buffers, with SystemError
   unless 0 <= a < M and 0 <= b < N. */
static int
store_pair(int a, int b, Py_ssize_t M, Py_ssize_t N, int *si, int *sj)
{
    if (a < 0 || a >= M || b < 0 || b >= N) {
        PyErr_Format(PyExc_SystemError, "loaded step (%d, %d) outside rank (%zd|%zd)", a, b,
                     M, N);
        return -1;
    }
    *si = a;
    *sj = (int)M + b;
    return 0;
}

/* Read steps with _pykernels._load_steps into buffer positions (store_pair).
   Return the number of steps, or -1 with an exception set (OverflowError
   TOO_MANY_STEPS past MAXSTEPS: the pure backend has no such bound). */
static Py_ssize_t
load_steps(PyObject *steps, Py_ssize_t M, Py_ssize_t N, int *si, int *sj)
{
    PyObject *ahead = call_pure("_load_steps", Py_BuildValue("(nO)", M, steps));
    Py_ssize_t ns = ahead == NULL ? -1 : PyList_Size(ahead); /* SystemError unless a list */
    int a, b;

    if (ns > MAXSTEPS) {
        PyErr_SetString(PyExc_OverflowError, TOO_MANY_STEPS);
        ns = -1;
    }
    for (Py_ssize_t k = 0; k < ns; k++)
        if (!PyArg_ParseTuple(PyList_GET_ITEM(ahead, k), "ii", &a, &b)
            || store_pair(a, b, M, N, si + k, sj + k) < 0)
            ns = -1;
    Py_XDECREF(ahead);
    return ns;
}

/* ---- the scans ---- */

static PyObject *
scan_image(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns;
    long p, lo, hi, total = 0;
    int failed = 0;
    PyObject *steps;
    int si[MAXSTEPS], sj[MAXSTEPS];
    long coords[MAXN], work[MAXN];

    if (check_args(args) < 0
        || !PyArg_ParseTuple(args, "nnlllO:scan_image", &M, &N, &p, &lo, &hi, &steps)
        || check_box(M, N, lo, hi) < 0 || (ns = load_steps(steps, M, N, si, sj)) < 0)
        return NULL;
    n = M + N;
    first_weight(coords, lo);
    /* Every mixed weight is dominant, so the dominant weights of the box
       hold its whole mixed set: those that also pass vanishing(). */
    do {
        total++;
        copy(work, coords, n);
        forward(work, p, si, sj, ns);
        failed |= !mixed(work, M, N, p);
        if (vanishing(coords, M, p)) {
            total++;
            copy(work, coords, n);
            inverse(work, p, si, sj, ns);
            failed |= !dominant(work, M, N);
        }
    } while (next_dominant(coords, M, n, lo, hi, hi));
    return Py_BuildValue("(lO)", total, failed ? Py_True : Py_False);
}

static inline int
in_box(const long *w, Py_ssize_t n, long lo, long hi)
{
    for (Py_ssize_t k = 0; k < n; k++)
        if (w[k] < lo || w[k] > hi)
            return 0;
    return 1;
}

/* The two walks of the theorem check (glmn_weights.oracle docstring), with
   the totals of the pure scan_theorem: it fails unless every image inside
   the box is mixed (a hit) and the hits are as many as the relevant ones. */
static PyObject *
scan_theorem(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns;
    long p, lo, hi, top, total = 0, images = 0, hits = 0, accepted = 0;
    PyObject *steps;
    int si[MAXSTEPS], sj[MAXSTEPS];
    long coords[MAXN], work[MAXN];

    if (check_args(args) < 0
        || !PyArg_ParseTuple(args, "nnlllO:scan_theorem", &M, &N, &p, &lo, &hi, &steps)
        || check_box(M, N, lo, hi) < 0 || (ns = load_steps(steps, M, N, si, sj)) < 0)
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
        if (in_box(work, n, lo, hi)) {
            images++;
            hits += mixed(work, M, N, p);
        }
    } while (next_dominant(coords, M, n, lo, hi, top));
    first_weight(coords, lo);
    do {
        total++;
        accepted += mixed(coords, M, N, p);
    } while (next_dominant(coords, M, n, lo, hi, hi));
    return Py_BuildValue("(lO)", total, hits != images || hits != accepted ? Py_True : Py_False);
}

/* Read the lattice table with _pykernels._load_ideals into edge[5 * e ...]:
   ideal I, ideal J = I - x, the buffer positions of lambda_i and theta_j of
   the pair x = (i, j) (store_pair), and whether the edge is the first of I.
   The loader holds the rules of a table; this only guards the buffers, with
   SystemError unless 0 <= J < I <= e + 1.  A state is reached from the
   weight by at most MAXSTEPS steps, as check_box assumes: a table with a
   longer chain of edges is refused with OverflowError.  Return the number
   of edges, or -1 with an exception set (*edge is then freed by the
   caller). */
static Py_ssize_t
load_ideals(PyObject *ideals, Py_ssize_t M, Py_ssize_t N, int **edge)
{
    PyObject *table = call_pure("_load_ideals", Py_BuildValue("(nO)", M, ideals));
    Py_ssize_t ne = table == NULL ? -1 : PyList_Size(table), rc = ne;
    int a, b, *depth;

    if (ne < 0) {
        Py_XDECREF(table);
        return -1;
    }
    *edge = PyMem_New(int, 5 * ne + 1);
    depth = PyMem_Calloc(ne + 1, sizeof(int));
    if (*edge == NULL || depth == NULL) {
        PyErr_NoMemory();
        rc = -1;
    }
    for (Py_ssize_t e = 0; e < ne && rc >= 0; e++) {
        int *ed = *edge + 5 * e;

        if (!PyArg_ParseTuple(PyList_GET_ITEM(table, e), "ii((ii))p", ed, ed + 1, &a, &b, ed + 4)
            || store_pair(a, b, M, N, ed + 2, ed + 3) < 0)
            rc = -1;
        else if (ed[1] < 0 || ed[0] <= ed[1] || ed[0] > e + 1) {
            PyErr_Format(PyExc_SystemError, "loaded edge %zd (%d, %d) outside the table", e,
                         ed[0], ed[1]);
            rc = -1;
        }
        else {
            if (ed[4] || depth[ed[0]] < depth[ed[1]] + 1)
                depth[ed[0]] = depth[ed[1]] + 1;
            if (depth[ed[0]] > MAXSTEPS) {
                PyErr_SetString(PyExc_OverflowError, "lattice table too deep for the "
                                                     "compiled backend; use the pure backend");
                rc = -1;
            }
        }
    }
    PyMem_Free(depth);
    Py_DECREF(table);
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
    Py_ssize_t M, N, n, ns, ne, stride, top = 0;
    long p, lo, hi, total = 0;
    int failed = 0;
    PyObject *steps, *ideals, *rc = NULL;
    int si[MAXSTEPS], sj[MAXSTEPS], *edge = NULL;
    long coords[MAXN], work[MAXN], *state = NULL;

    if (check_args(args) < 0
        || !PyArg_ParseTuple(args, "nnlllOO:scan_order", &M, &N, &p, &lo, &hi, &steps, &ideals)
        || check_box(M, N, lo, hi) < 0 || (ns = load_steps(steps, M, N, si, sj)) < 0)
        return NULL;
    if ((ne = load_ideals(ideals, M, N, &edge)) < 0)
        goto done;
    n = M + N;
    stride = (n + 3) / 4 * 4;
    for (Py_ssize_t e = 0; e < ne; e++)
        top = Py_MAX(top, edge[5 * e]); /* the last ideal; state must hold every one */
    if ((state = PyMem_New(long, (top + 1) * stride)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    first_weight(coords, lo);
    do {
        copy(state, coords, n);
        for (Py_ssize_t e = 0; e < ne; e++) {
            const int *ed = edge + 5 * e;
            long *dst = ed[4] ? state + ed[0] * stride : work;

            copy(dst, state + ed[1] * stride, n);
            step(dst, p, ed[2], ed[3], 1);
            failed |= !ed[4] && !equal(work, state + ed[0] * stride, n);
        }
        copy(work, coords, n);
        forward(work, p, si, sj, ns);
        failed |= !equal(work, state + top * stride, n);
        total += ne + 1;
    } while (next_dominant(coords, M, n, lo, hi, hi));
    rc = Py_BuildValue("(lO)", total, failed ? Py_True : Py_False);
done:
    PyMem_Free(edge);
    PyMem_Free(state);
    return rc;
}

static PyObject *
scan_trace(PyObject *self, PyObject *args)
{
    Py_ssize_t M, N, n, ns[2];
    long p, lo, hi, total = 0;
    int failed = 0;
    PyObject *steps[2];
    int si[2][MAXSTEPS], sj[2][MAXSTEPS];
    long coords[MAXN], work[MAXN];

    if (check_args(args) < 0
        || !PyArg_ParseTuple(args, "nnlllOO:scan_trace", &M, &N, &p, &lo, &hi, &steps[0],
                             &steps[1])
        || check_box(M, N, lo, hi) < 0 || (ns[0] = load_steps(steps[0], M, N, si[0], sj[0])) < 0
        || (ns[1] = load_steps(steps[1], M, N, si[1], sj[1])) < 0)
        return NULL;
    n = M + N;
    first_weight(coords, lo);
    do {
        total++;
        /* v1 keeps lambda non-increasing, v2 theta_1..theta_{M+1}: work[M..2M+1) */
        for (int tag = 0; tag < 2; tag++) {
            copy(work, coords, n);
            for (Py_ssize_t k = 0; k < ns[tag]; k++) {
                step(work, p, si[tag][k], sj[tag][k], 1);
                failed |= !non_increasing(work + tag * M, M + tag);
            }
        }
    } while (next_dominant(coords, M, n, lo, hi, hi));
    return Py_BuildValue("(lO)", total, failed ? Py_True : Py_False);
}

/* ---- the module ---- */

static PyMethodDef methods[] = {
    {"scan_image", scan_image, METH_VARARGS,
     "scan_image($module, M, N, p, lo, hi, steps, /)\n--\n\n"
     "One pass over the dominant weights of the box: forward must be mixed, and\n"
     "the inverse of each mixed one dominant."},
    {"scan_theorem", scan_theorem, METH_VARARGS,
     "scan_theorem($module, M, N, p, lo, hi, steps, /)\n--\n\n"
     "Predicate vs algorithm, over dominant chains of the box and of a widened box."},
    {"scan_order", scan_order, METH_VARARGS,
     "scan_order($module, M, N, p, lo, hi, steps, ideals, /)\n--\n\n"
     "The lattice of order ideals walked on dominant weights, its top vs forward."},
    {"scan_trace", scan_trace, METH_VARARGS,
     "scan_trace($module, M, N, p, lo, hi, steps_v1, steps_v2, /)\n--\n\n"
     "The chains after every step of both canonical orders, on dominant weights."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups = {
    PyModuleDef_HEAD_INIT,
    .m_name = "glmn_weights._speedups",
    .m_doc = "Compiled scan kernels for the exhaustive verification loops; each scan\n"
             "gives (total, failed), the total and whether the check failed.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    if ((pykernels = PyImport_ImportModule("glmn_weights._pykernels")) == NULL)
        return NULL;
    return PyModule_Create(&speedups);
}
