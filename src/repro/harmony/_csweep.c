/* _csweep: C-accelerated similarity-flooding sweeps.
 *
 * The C kernel of repro/harmony/flooding.py (CSweepBackend), used
 * whenever this extension is built.  The two cores below replicate the
 * pure-Python reference loops' arithmetic exactly — same
 * per-destination accumulation order (the classic core regroups edges
 * by destination with a *stable* sort, which preserves it), same peak
 * normalization, same max-abs-delta residual, same clamp arithmetic —
 * so the results are bit-identical on IEEE-754 doubles (the build never
 * enables -ffast-math; the differential suite in
 * tests/harmony/test_sweep_backends.py holds both kernels to <=1e-12).
 *
 * setup.py builds this file as the *optional* setuptools Extension
 * `repro.harmony._csweep`; its wrappers accept the
 * `array('l')`/`array('d')` buffers CompiledPCG already holds,
 * zero-copy via the buffer protocol.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdlib.h>
#include <string.h>

/* Classic fixpoint: sigma+ = normalize(sigma0 + sigma + phi(sigma)).
 *
 * `sigma` holds sigma0 on entry and the final scores on exit.  Edge
 * indices must be in [0, n); the Python wrappers validate once before
 * the loop.  Returns 0, or -1 on allocation failure.
 *
 * The phi(sigma) gather is evaluated over the edges regrouped by
 * destination (a stable counting sort, built once per call): each
 * node's incoming sum then accumulates in a register over a contiguous
 * run instead of read-modify-writing a scatter buffer.  Stability
 * preserves the reference loop's per-destination accumulation order,
 * so the floating-point results stay bit-identical.
 */
static int csweep_classic(
    long n_edges, const long *src, const long *dst, const double *wts,
    long n, long max_iterations, double epsilon, double *sigma)
{
    double *sigma0, *cur, *updated, *tmp, *in_wts;
    long *in_indptr, *in_src;
    long e, i, iter;

    if (n <= 0)
        return 0;
    sigma0 = (double *)malloc((size_t)n * 2 * sizeof(double));
    in_indptr = (long *)malloc((size_t)(2 * n + 1) * sizeof(long));
    in_src = (long *)malloc((size_t)(n_edges ? n_edges : 1) * sizeof(long));
    in_wts = (double *)malloc((size_t)(n_edges ? n_edges : 1) * sizeof(double));
    if (sigma0 == NULL || in_indptr == NULL || in_src == NULL ||
        in_wts == NULL) {
        free(sigma0);
        free(in_indptr);
        free(in_src);
        free(in_wts);
        return -1;
    }
    cur = sigma;
    updated = sigma0 + n;
    memcpy(sigma0, sigma, (size_t)n * sizeof(double));

    {
        /* stable counting sort of the edges by destination; the second
         * half of in_indptr serves as the bucket cursor */
        long *cursor = in_indptr + n + 1;
        memset(in_indptr, 0, ((size_t)n + 1) * sizeof(long));
        for (e = 0; e < n_edges; e++)
            in_indptr[dst[e] + 1]++;
        for (i = 0; i < n; i++) {
            in_indptr[i + 1] += in_indptr[i];
            cursor[i] = in_indptr[i];
        }
        for (e = 0; e < n_edges; e++) {
            long at = cursor[dst[e]]++;
            in_src[at] = src[e];
            in_wts[at] = wts[e];
        }
    }

    for (iter = 0; iter < max_iterations; iter++) {
        double peak = 0.0, residual = 0.0;
        for (i = 0; i < n; i++) {
            double acc = 0.0, value;
            long k, k_end = in_indptr[i + 1];
            for (k = in_indptr[i]; k < k_end; k++) {
                double score = cur[in_src[k]];
                if (score != 0.0)
                    acc += score * in_wts[k];
            }
            value = sigma0[i] + cur[i] + acc;
            updated[i] = value;
            if (value > peak)
                peak = value;
        }
        if (peak > 0.0) {
            for (i = 0; i < n; i++) {
                double value = updated[i] / peak;
                double delta;
                updated[i] = value;
                delta = value - cur[i];
                if (delta < 0.0)
                    delta = -delta;
                if (delta > residual)
                    residual = delta;
            }
        } else {
            for (i = 0; i < n; i++) {
                double delta = updated[i] - cur[i];
                if (delta < 0.0)
                    delta = -delta;
                if (delta > residual)
                    residual = delta;
            }
        }
        tmp = cur;
        cur = updated;
        updated = tmp;
        if (residual < epsilon)
            break;
    }
    if (cur != sigma)
        memcpy(sigma, cur, (size_t)n * sizeof(double));
    free(sigma0);
    free(in_indptr);
    free(in_src);
    free(in_wts);
    return 0;
}

/* Directional (Harmony) propagation over the flattened parent/child
 * structure.  `current` is updated in place.  `up_children` is CSR-style:
 * parent slot s owns children[up_indptr[s] : up_indptr[s+1]].  Pinned
 * pairs (user decisions) are never written.  Returns 0, or -1 on
 * allocation failure.
 */
static int csweep_directional(
    long n, double *current,
    long n_up, const long *up_parents, const long *up_indptr,
    const long *up_children,
    long n_down, const long *down_child, const long *down_parent,
    const unsigned char *pinned,
    double up_rate, double down_rate, long iterations)
{
    double *updated, *tmp;
    long it, slot, e;

    if (n <= 0)
        return 0;
    updated = (double *)malloc((size_t)n * sizeof(double));
    if (updated == NULL)
        return -1;

    for (it = 0; it < iterations; it++) {
        memcpy(updated, current, (size_t)n * sizeof(double));
        /* positive evidence propagates up */
        for (slot = 0; slot < n_up; slot++) {
            long j = up_parents[slot];
            double total = 0.0;
            long count = 0, c;
            if (pinned[j])
                continue;
            for (c = up_indptr[slot]; c < up_indptr[slot + 1]; c++) {
                double value = current[up_children[c]];
                if (value > 0.0) {
                    total += value;
                    count += 1;
                }
            }
            if (count) {
                double boost = up_rate * (total / count);
                double value = current[j] + boost;
                if (value > 0.99)
                    value = 0.99;
                if (value < -1.0)
                    value = -1.0;
                updated[j] = value;
            }
        }
        /* negative evidence trickles down */
        for (e = 0; e < n_down; e++) {
            long child = down_child[e];
            double parent_score = current[down_parent[e]];
            if (pinned[child])
                continue;
            if (parent_score < 0.0) {
                double value = updated[child] + down_rate * parent_score;
                if (value < -0.99)
                    value = -0.99;
                if (value > 1.0)
                    value = 1.0;
                updated[child] = value;
            }
        }
        tmp = current;
        current = updated;
        updated = tmp;
    }
    /* after an odd number of swaps the final scores sit in the malloc'd
     * scratch (`current`) and the caller's buffer is `updated` */
    if (iterations % 2 != 0) {
        memcpy(updated, current, (size_t)n * sizeof(double));
        free(current);
    } else {
        free(updated);
    }
    return 0;
}

/* -- CPython wrappers ---------------------------------------------------- */

typedef struct {
    Py_buffer view;
    int held;
} BufferGuard;

static int
get_buffer(PyObject *obj, BufferGuard *guard, int writable, int itemsize,
           const char *name)
{
    int flags = writable ? (PyBUF_CONTIG | PyBUF_FORMAT)
                         : (PyBUF_CONTIG_RO | PyBUF_FORMAT);
    if (PyObject_GetBuffer(obj, &guard->view, flags) != 0)
        return -1;
    guard->held = 1;
    if (guard->view.itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError,
                     "%s: expected itemsize %d, got %zd",
                     name, itemsize, guard->view.itemsize);
        return -1;
    }
    return 0;
}

static void
release_buffers(BufferGuard *guards, int count)
{
    int i;
    for (i = 0; i < count; i++)
        if (guards[i].held)
            PyBuffer_Release(&guards[i].view);
}

static int
check_indices(const long *idx, long count, long n)
{
    long i;
    for (i = 0; i < count; i++)
        if (idx[i] < 0 || idx[i] >= n)
            return -1;
    return 0;
}

static PyObject *
py_sweep_classic(PyObject *self, PyObject *args)
{
    PyObject *src_obj, *dst_obj, *wts_obj, *sigma_obj;
    long max_iterations;
    double epsilon;
    BufferGuard guards[4] = {{{0}, 0}, {{0}, 0}, {{0}, 0}, {{0}, 0}};
    const long *src, *dst;
    const double *wts;
    double *sigma;
    long n_edges, n;
    int status;

    if (!PyArg_ParseTuple(args, "OOOOld", &src_obj, &dst_obj, &wts_obj,
                          &sigma_obj, &max_iterations, &epsilon))
        return NULL;
    if (get_buffer(src_obj, &guards[0], 0, sizeof(long), "edge_src") != 0 ||
        get_buffer(dst_obj, &guards[1], 0, sizeof(long), "edge_dst") != 0 ||
        get_buffer(wts_obj, &guards[2], 0, sizeof(double), "edge_weight") != 0 ||
        get_buffer(sigma_obj, &guards[3], 1, sizeof(double), "sigma") != 0)
        goto error;

    n_edges = (long)(guards[0].view.len / (Py_ssize_t)sizeof(long));
    n = (long)(guards[3].view.len / (Py_ssize_t)sizeof(double));
    if ((long)(guards[1].view.len / (Py_ssize_t)sizeof(long)) != n_edges ||
        (long)(guards[2].view.len / (Py_ssize_t)sizeof(double)) != n_edges) {
        PyErr_SetString(PyExc_ValueError, "edge arrays disagree on length");
        goto error;
    }
    src = (const long *)guards[0].view.buf;
    dst = (const long *)guards[1].view.buf;
    wts = (const double *)guards[2].view.buf;
    sigma = (double *)guards[3].view.buf;
    if (check_indices(src, n_edges, n) != 0 ||
        check_indices(dst, n_edges, n) != 0) {
        PyErr_SetString(PyExc_ValueError, "edge index out of range");
        goto error;
    }

    Py_BEGIN_ALLOW_THREADS
    status = csweep_classic(n_edges, src, dst, wts, n, max_iterations,
                            epsilon, sigma);
    Py_END_ALLOW_THREADS
    release_buffers(guards, 4);
    if (status != 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;

error:
    release_buffers(guards, 4);
    return NULL;
}

static PyObject *
py_sweep_directional(PyObject *self, PyObject *args)
{
    PyObject *cur_obj, *up_parents_obj, *up_indptr_obj, *up_children_obj;
    PyObject *down_child_obj, *down_parent_obj, *pinned_obj;
    double up_rate, down_rate;
    long iterations;
    BufferGuard guards[7] = {{{0}, 0}, {{0}, 0}, {{0}, 0}, {{0}, 0},
                             {{0}, 0}, {{0}, 0}, {{0}, 0}};
    double *current;
    const long *up_parents, *up_indptr, *up_children, *down_child, *down_parent;
    const unsigned char *pinned;
    long n, n_up, n_children, n_down;
    int status;

    if (!PyArg_ParseTuple(args, "OOOOOOOddl", &cur_obj, &up_parents_obj,
                          &up_indptr_obj, &up_children_obj, &down_child_obj,
                          &down_parent_obj, &pinned_obj, &up_rate, &down_rate,
                          &iterations))
        return NULL;
    if (get_buffer(cur_obj, &guards[0], 1, sizeof(double), "current") != 0 ||
        get_buffer(up_parents_obj, &guards[1], 0, sizeof(long), "up_parents") != 0 ||
        get_buffer(up_indptr_obj, &guards[2], 0, sizeof(long), "up_indptr") != 0 ||
        get_buffer(up_children_obj, &guards[3], 0, sizeof(long), "up_children") != 0 ||
        get_buffer(down_child_obj, &guards[4], 0, sizeof(long), "down_child") != 0 ||
        get_buffer(down_parent_obj, &guards[5], 0, sizeof(long), "down_parent") != 0 ||
        get_buffer(pinned_obj, &guards[6], 0, 1, "pinned") != 0)
        goto error;

    n = (long)(guards[0].view.len / (Py_ssize_t)sizeof(double));
    n_up = (long)(guards[1].view.len / (Py_ssize_t)sizeof(long));
    n_children = (long)(guards[3].view.len / (Py_ssize_t)sizeof(long));
    n_down = (long)(guards[4].view.len / (Py_ssize_t)sizeof(long));
    if ((long)(guards[2].view.len / (Py_ssize_t)sizeof(long)) != n_up + 1 &&
        !(n_up == 0 && guards[2].view.len == 0)) {
        PyErr_SetString(PyExc_ValueError, "up_indptr must have n_up+1 entries");
        goto error;
    }
    if ((long)(guards[5].view.len / (Py_ssize_t)sizeof(long)) != n_down) {
        PyErr_SetString(PyExc_ValueError, "down arrays disagree on length");
        goto error;
    }
    if ((long)guards[6].view.len != n) {
        PyErr_SetString(PyExc_ValueError, "pinned mask must have n entries");
        goto error;
    }
    current = (double *)guards[0].view.buf;
    up_parents = (const long *)guards[1].view.buf;
    up_indptr = (const long *)guards[2].view.buf;
    up_children = (const long *)guards[3].view.buf;
    down_child = (const long *)guards[4].view.buf;
    down_parent = (const long *)guards[5].view.buf;
    pinned = (const unsigned char *)guards[6].view.buf;
    if (check_indices(up_parents, n_up, n) != 0 ||
        check_indices(up_children, n_children, n) != 0 ||
        check_indices(down_child, n_down, n) != 0 ||
        check_indices(down_parent, n_down, n) != 0 ||
        (n_up > 0 && (up_indptr[0] != 0 || up_indptr[n_up] != n_children))) {
        PyErr_SetString(PyExc_ValueError, "directional index out of range");
        goto error;
    }
    if (n_up > 0) {
        long s;
        for (s = 0; s < n_up; s++)
            if (up_indptr[s] > up_indptr[s + 1]) {
                PyErr_SetString(PyExc_ValueError, "up_indptr must be nondecreasing");
                goto error;
            }
    }

    Py_BEGIN_ALLOW_THREADS
    status = csweep_directional(n, current, n_up, up_parents, up_indptr,
                                up_children, n_down, down_child, down_parent,
                                pinned, up_rate, down_rate, iterations);
    Py_END_ALLOW_THREADS
    release_buffers(guards, 7);
    if (status != 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;

error:
    release_buffers(guards, 7);
    return NULL;
}

static PyMethodDef csweep_methods[] = {
    {"sweep_classic", py_sweep_classic, METH_VARARGS,
     "sweep_classic(edge_src, edge_dst, edge_weight, sigma, max_iterations, "
     "epsilon)\n\nRun the classic flooding fixpoint in place over `sigma` "
     "(array('d'), holds sigma0 on entry, final scores on exit)."},
    {"sweep_directional", py_sweep_directional, METH_VARARGS,
     "sweep_directional(current, up_parents, up_indptr, up_children, "
     "down_child, down_parent, pinned, up_rate, down_rate, iterations)\n\n"
     "Run the directional propagation in place over `current`."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef csweep_module = {
    PyModuleDef_HEAD_INIT,
    "repro.harmony._csweep",
    "C-accelerated similarity-flooding sweeps (see flooding.CSweepBackend).",
    -1,
    csweep_methods,
};

PyMODINIT_FUNC
PyInit__csweep(void)
{
    return PyModule_Create(&csweep_module);
}
