/* The native engine's dispatcher: one CPython extension, built once per
 * artifact cache by the toolchain probe (repro.runtime.native).
 *
 * probe()  the OpenMP reduction the probe checks: 4.
 * call(functions, host, contract, arguments)  one native run of the spans a
 *     contract describes, on ``arguments`` (a list or tuple), with nothing
 *     stored unless every check passes:
 *     - each parameter is checked once, in order -- an int or a float
 *       (converted as int() / float() would, or, ``exact``, only an int or a
 *       float as passed), or a buffer: a MemRefStorage or an ndarray, not
 *       freed, dtype, rank, C layout, memory space, writable if stored;
 *     - ``host`` (an address, or None), a straight-line entry's host
 *       function (codegen_c.emit_host), computes the host scalars;
 *     - every span's iteration space is read and its licence decided;
 *     - then, with the interpreter lock released once, the steps run: the
 *       spans (their addresses looked up in ``functions`` by symbol, the
 *       region ABI of codegen_c) in order, between the charges, teams and
 *       barriers of the generated Python, whose counters are folded as it
 *       folds them, addition for addition, in the steps the function
 *       compiler recorded as it emitted them (compiler.Fold).
 *     Returns ``(work, dynamic_ops, global_bytes, parallel_regions,
 *     workshared_loops, barriers, dispatches, error)`` -- on a span's error
 *     no step after the span ran, and only the counters and the code count:
 *     the run's work frames end with it -- or the code of the first failed
 *     check (``REFUSE_*``, the index of its name in native._REFUSALS).
 * A region's dispatch is a contract of one span whose parameters are the
 * live-ins in the register list; a warm run of a straight-line entry is a
 * contract of the whole function, whose parameters are its arguments.
 *
 * ``contract`` is native._Call, a tuple: (MemRefStorage, ndarray, layout
 * (int64 words), charges (doubles), span symbols, and per buffer its
 * accepted formats and its memory space).  The layout:
 *     header   n_params n_ints n_floats n_buffers n_spans n_steps threads
 *              n_speedups g_ints g_floats g_buffers n_extents exact arity
 *              (arity -1: any argument count)
 *     params   kind (PARAM_*) index rank stored position, each
 *     gathers  g_ints indices of VI, g_floats of VF, g_buffers of buffers:
 *              every span's int live-ins and bounds, floats, buffers
 *     spans    width team (-1 an scf.parallel's, 0 the threads, else fixed)
 *              nowait int_at float_at bound_at dims buffer_at n_buffers
 *              extent_at n_costs costs... n_required (-1: no proof)
 *              required... n_pairs (first second)...
 *     steps    kind (STEP_*) argument, each
 * and the charges: the sync and fork costs, speedup(1..n_speedups), then
 * each STEP_CHARGE's cycles.
 * Every buffer acquired is released on every way out; the buffers keep
 * their arrays alive while the lock is released. */

/* without CPython's debug assertions in its macros, as its own extension
 * builds are (sysconfig's CFLAGS): every object is type-checked first */
#define NDEBUG
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <omp.h>

typedef void (*region_fn)(const int64_t *LI, const double *LF, const int64_t *K,
                          void *const *LP, const int64_t *LS, const int64_t *RLB,
                          const int64_t *RST, const int64_t *RLEN, int64_t total,
                          int64_t mode, int64_t width, double *outf, int64_t *outi);
typedef int (*host_fn)(int64_t *VI, double *VF);

enum {
    REFUSE_SCALAR, REFUSE_FREED, REFUSE_DTYPE, REFUSE_RANK, REFUSE_LAYOUT,
    REFUSE_SPACE, REFUSE_READ_ONLY, REFUSE_STEP,
    /* what a helper returns when it refuses nothing */
    NO_REFUSAL = -2
};
enum { PARAM_INT, PARAM_FLOAT, PARAM_BUFFER };
enum { STEP_OPS, STEP_CHARGE, STEP_OPEN, STEP_CLOSE, STEP_BARRIER, STEP_SPAN };

/* minimum iterations before a span is worth an OpenMP team. */
#define MIN_PARALLEL_UNITS 64
/* the deepest frame stack an entry's steps may open. */
#define MAX_FRAMES 8

static PyObject *name_array, *name_freed, *name_memory_space, *name_global;

/* 1 when the pending exception is one a conversion refuses on (the value
 * cannot be converted), after clearing it; 0 when it must propagate. */
static int refusable(void)
{
    if (PyErr_ExceptionMatches(PyExc_TypeError) || PyErr_ExceptionMatches(PyExc_ValueError)
            || PyErr_ExceptionMatches(PyExc_OverflowError)) {
        PyErr_Clear();
        return 1;
    }
    return 0;
}

/* ``value`` as an int64, converted as int() converts it unless it is an int:
 * 0 done, 1 refuse (not convertible, or outside int64), -1 error. */
static int as_int64(PyObject *value, int64_t *out)
{
    PyObject *owned = NULL;
    int overflow;
    long long result;
    if (!PyLong_Check(value)) {
        owned = value = PyNumber_Long(value);
        if (value == NULL)
            return refusable() ? 1 : -1;
    }
    result = PyLong_AsLongLongAndOverflow(value, &overflow);
    Py_XDECREF(owned);
    if (overflow)
        return 1;
    if (result == -1 && PyErr_Occurred())
        return -1;
    *out = result;
    return 0;
}

/* ``value`` as a double, converted as float() converts it unless it is a
 * float: 0 done, 1 refuse, -1 error. */
static int as_double(PyObject *value, double *out)
{
    if (!PyFloat_Check(value)) {
        PyObject *owned = PyNumber_Float(value);
        if (owned == NULL)
            return refusable() ? 1 : -1;
        *out = PyFloat_AS_DOUBLE(owned);
        Py_DECREF(owned);
        return 0;
    }
    *out = PyFloat_AS_DOUBLE(value);
    return 0;
}

/* len(range(lb, ub, st)) for a nonzero step, or -1 when it exceeds int64. */
static int64_t range_length(int64_t lb, int64_t ub, int64_t st)
{
    uint64_t span, stride, length;
    if (st > 0) {
        if (lb >= ub)
            return 0;
        span = (uint64_t)ub - (uint64_t)lb;
        stride = (uint64_t)st;
    } else {
        if (lb <= ub)
            return 0;
        span = (uint64_t)lb - (uint64_t)ub;
        stride = (uint64_t)0 - (uint64_t)st;
    }
    length = (span - 1) / stride + 1;
    return length > (uint64_t)INT64_MAX ? -1 : (int64_t)length;
}

/* The iteration space of ``dims`` bounds: each dim's length into ``rlen`` and
 * their product into ``total`` (0 when one dim is empty).  REFUSE_STEP for a
 * zero step, REFUSE_SCALAR for a product past int64, else NO_REFUSAL. */
static int iteration_space(Py_ssize_t dims, const int64_t *lb, const int64_t *ub,
                           const int64_t *st, int64_t *rlen, int64_t *total)
{
    int empty = 0, overflow = 0;
    *total = 1;
    for (Py_ssize_t index = 0; index < dims; ++index) {
        if (st[index] == 0)
            return REFUSE_STEP;
        int64_t length = range_length(lb[index], ub[index], st[index]);
        overflow |= length < 0 || (length > 0 && __builtin_mul_overflow(*total, length, total));
        empty |= length == 0;
        rlen[index] = length;
    }
    if (empty)
        *total = 0;
    else if (overflow)
        return REFUSE_SCALAR;
    return NO_REFUSAL;
}

/* The licence to reorder iterations -- across a team's chunks or the lanes
 * of a block -- is the store-safety proof holding for these live-ins: its
 * required-singleton dims (``n_required`` of them; -1: no proof) are 1 and
 * no stored buffer overlaps another (the ``n_pairs`` pairs of buffer
 * indices).  The team also needs enough units to amortize it; without the
 * licence ``width`` becomes 1, the plain path running one lane at a time,
 * the sequential order.  Sets ``mode`` and ``width``; -1 with an IndexError
 * for a dim or buffer index out of range, else 0. */
static int licence(const int64_t *required, Py_ssize_t n_required, Py_ssize_t dims,
                   const int64_t *rlen, const int64_t *pairs, Py_ssize_t n_pairs,
                   Py_ssize_t n_buffers, void *const *lp, const Py_ssize_t *nbytes,
                   int64_t total, int64_t *width, int64_t *mode)
{
    int licensed = n_required >= 0 && (*width > 1 || total >= MIN_PARALLEL_UNITS);
    for (Py_ssize_t index = 0; licensed && index < n_required; ++index) {
        int64_t dim = required[index];
        if (dim < 0 || dim >= dims) {
            PyErr_SetString(PyExc_IndexError, "required dim out of range");
            return -1;
        }
        licensed = rlen[dim] == 1;
    }
    for (Py_ssize_t index = 0; licensed && index < n_pairs; ++index) {
        int64_t first = pairs[2 * index], second = pairs[2 * index + 1];
        if (first < 0 || second < 0 || first >= n_buffers || second >= n_buffers) {
            PyErr_SetString(PyExc_IndexError, "alias pair out of range");
            return -1;
        }
        uintptr_t start = (uintptr_t)lp[first], stop = start + (uintptr_t)nbytes[first];
        uintptr_t other = (uintptr_t)lp[second];
        licensed = !(start != stop && start < other + (uintptr_t)nbytes[second]
                     && other < stop);
    }
    *mode = licensed && total >= MIN_PARALLEL_UNITS;
    if (!licensed)
        *width = 1;
    return 0;
}

/* Take ``argument`` as a buffer the region code may be handed: a
 * MemRefStorage, or -- ``array_type`` given -- an ndarray, which is a
 * global-memory storage of its own bytes.  The checks, in order: the kind,
 * not freed, a dtype of ``formats``, ``rank``, C layout, memory ``space``,
 * writable if ``stored``.  Returns NO_REFUSAL with ``view`` acquired, the
 * refusal code of the first failed check (nothing held), or -1 on an
 * error. */
static int take_buffer(PyObject *argument, PyTypeObject *storage_type,
                       PyTypeObject *array_type, PyObject *formats, Py_ssize_t rank,
                       PyObject *space, int stored, Py_buffer *view)
{
    PyObject *array, *attribute;
    int status, refusal = NO_REFUSAL;
    int storage = !(array_type != NULL && PyObject_TypeCheck(argument, array_type));
    if (storage) {
        if (!PyObject_TypeCheck(argument, storage_type))
            return REFUSE_SCALAR;
        attribute = PyObject_GetAttr(argument, name_freed);
        if (attribute == NULL)
            return -1;
        status = PyObject_IsTrue(attribute);
        Py_DECREF(attribute);
        if (status)
            return status < 0 ? -1 : REFUSE_FREED;
        array = PyObject_GetAttr(argument, name_array);
        if (array == NULL)
            return -1;
    } else {
        array = argument;
        Py_INCREF(array);
    }
    status = PyObject_GetBuffer(array, view, PyBUF_RECORDS_RO);
    Py_DECREF(array);
    if (status < 0) {
        /* no buffer (a dtype the protocol cannot describe, or no array) */
        if (!(PyErr_ExceptionMatches(PyExc_BufferError) || refusable()))
            return -1;
        PyErr_Clear();
        return REFUSE_DTYPE;
    }
    const char *format = view->format != NULL ? view->format : "B";
    Py_ssize_t accepted = PyTuple_GET_SIZE(formats), candidate;
    for (candidate = 0; candidate < accepted; ++candidate) {
        PyObject *name = PyTuple_GET_ITEM(formats, candidate);
        if (PyBytes_Check(name) && strcmp(PyBytes_AS_STRING(name), format) == 0)
            break;
    }
    if (candidate == accepted)
        refusal = REFUSE_DTYPE;
    else if (view->ndim != rank)
        refusal = REFUSE_RANK;
    else if (!PyBuffer_IsContiguous(view, 'C'))
        refusal = REFUSE_LAYOUT;
    else {
        attribute = storage ? PyObject_GetAttr(argument, name_memory_space) : name_global;
        if (attribute == NULL) {
            PyBuffer_Release(view);
            return -1;
        }
        status = PyObject_RichCompareBool(attribute, space, Py_EQ);
        if (storage)
            Py_DECREF(attribute);
        if (status < 0) {
            PyBuffer_Release(view);
            return -1;
        }
        if (!status)
            refusal = REFUSE_SPACE;
        else if (stored && view->readonly)
            refusal = REFUSE_READ_ONLY;
    }
    if (refusal != NO_REFUSAL)
        PyBuffer_Release(view);
    return refusal;
}

/* A bounds-checked cursor over an entry contract's layout. */
typedef struct {
    const int64_t *at, *end;
    int bad;
} cursor;

/* The next ``count`` words (flags the cursor bad past the end). */
static const int64_t *words(cursor *c, int64_t count)
{
    if (count < 0 || count > c->end - c->at) {
        c->bad = 1;
        return c->end;
    }
    const int64_t *at = c->at;
    c->at += count;
    return at;
}

/* The next word, flagged bad unless it lies in [low, high). */
static int64_t word(cursor *c, int64_t low, int64_t high)
{
    const int64_t *at = words(c, 1);
    if (c->bad || *at < low || *at >= high) {
        c->bad = 1;
        return low;
    }
    return *at;
}

/* One span of an entry, as read from its layout and prepared for the run. */
typedef struct {
    region_fn function;
    const int64_t *K;
    int64_t parallel, total, mode, width;
    double fork, sync, speedup;
    int64_t *li, *rlb, *rst, *rlen, *ls;
    double *lf;
    void **lp;
} span_call;

/* call() past its argument checks: ``c`` stands after the layout's header.
 * (A function of its own, so that no jump enters the scope of its arrays.) */
static PyObject *enter(PyObject *functions, host_fn host, PyObject *contract,
                       PyObject *arguments, const int64_t *header, cursor c)
{
    PyObject *storage_type = PyTuple_GET_ITEM(contract, 0);
    PyObject *array_type = PyTuple_GET_ITEM(contract, 1);
    PyObject *charges = PyTuple_GET_ITEM(contract, 3);
    PyObject *symbols = PyTuple_GET_ITEM(contract, 4);
    PyObject *formats = PyTuple_GET_ITEM(contract, 5);
    PyObject *spaces = PyTuple_GET_ITEM(contract, 6);
    const double *charge = (const double *)PyBytes_AS_STRING(charges);
    const int64_t n_charges = PyBytes_GET_SIZE(charges) / (Py_ssize_t)sizeof(double);
    const int64_t n_params = header[0], n_ints = header[1], n_floats = header[2];
    const int64_t n_buffers = header[3], n_spans = header[4], n_steps = header[5];
    const int64_t threads = header[6], n_speedups = header[7], g_ints = header[8];
    const int64_t g_floats = header[9], g_buffers = header[10], n_extents = header[11];
    const int exact = (int)header[12];
    const Py_ssize_t n_arguments = PySequence_Fast_GET_SIZE(arguments);
    PyObject **items = PySequence_Fast_ITEMS(arguments);
    int64_t VI[n_ints + 1], G[g_ints + 1], rlen[g_ints + 1], ls[n_extents + 1];
    double VF[n_floats + 1], F[g_floats + 1];
    void *lp[g_buffers + 1];
    Py_ssize_t nbytes[g_buffers + 1];
    Py_buffer views[n_buffers + 1];
    span_call spans[n_spans + 1];
    int64_t acquired = 0, index;
    int refusal = REFUSE_SCALAR, status;
    PyObject *result = NULL;

    /* the parameters, each checked once, in order */
    for (index = 0; index < n_params; ++index) {
        const int64_t kind = word(&c, PARAM_INT, PARAM_BUFFER + 1);
        const int64_t slot = word(&c, 0, kind == PARAM_INT ? n_ints
                                     : kind == PARAM_FLOAT ? n_floats : n_buffers);
        const int64_t rank = word(&c, 0, 64), stored = word(&c, 0, 2);
        const int64_t position = word(&c, 0, n_arguments);
        if (c.bad || (kind == PARAM_BUFFER && slot != acquired))
            goto malformed;
        PyObject *item = items[position];
        if (kind == PARAM_INT) {
            /* exact: an int as passed, which host code computes on */
            status = exact && !PyLong_Check(item) ? 1 : as_int64(item, &VI[slot]);
        } else if (kind == PARAM_FLOAT) {
            status = exact && !PyFloat_Check(item) ? 1 : as_double(item, &VF[slot]);
        } else {
            status = 0;
            refusal = take_buffer(item, (PyTypeObject *)storage_type,
                                  (PyTypeObject *)array_type,
                                  PyTuple_GET_ITEM(formats, slot), rank,
                                  PyTuple_GET_ITEM(spaces, slot), (int)stored,
                                  &views[slot]);
            if (refusal == -1)
                goto error;
            if (refusal != NO_REFUSAL)
                goto done;
            acquired = slot + 1;
        }
        if (status)
            goto refused_or_error;
    }
    refusal = REFUSE_SCALAR;
    if (acquired != n_buffers)
        goto malformed;

    /* the host scalars: a host integer op that leaves int64 refuses */
    if (host != NULL && host(VI, VF))
        goto done;

    /* the spans' live-ins, gathered: their ints and bounds, floats and
     * buffers, each span's at an offset */
    for (index = 0; index < g_ints; ++index)
        G[index] = VI[word(&c, 0, n_ints)];
    for (index = 0; index < g_floats; ++index)
        F[index] = VF[word(&c, 0, n_floats)];
    int64_t extent = 0;
    for (index = 0; index < g_buffers; ++index) {
        const Py_buffer *view = &views[word(&c, 0, n_buffers)];
        if (c.bad || view->ndim > n_extents - extent)
            goto malformed;
        lp[index] = view->buf;
        nbytes[index] = view->len;
        for (int dim = 0; dim < view->ndim; ++dim)
            ls[extent++] = (int64_t)view->shape[dim];
    }

    /* each span's iteration space and licence */
    for (index = 0; index < n_spans; ++index) {
        span_call *span = &spans[index];
        /* width team nowait int_at float_at bound_at dims buffer_at
         * n_buffers extent_at */
        const int64_t *at = words(&c, 10);
        span->K = words(&c, word(&c, 0, 1 << 24));
        const int64_t n_required = word(&c, -1, 64);
        const int64_t *required = words(&c, n_required < 0 ? 0 : n_required);
        const int64_t n_pairs = word(&c, 0, 1 << 24);
        const int64_t *pairs = words(&c, 2 * n_pairs);
        if (c.bad)
            goto malformed;  /* before ``at`` is read: it may be the end */
        int bad = at[0] < 1 || at[1] < -1 || at[1] > n_speedups;
        for (int field = 2; field < 10; ++field)
            bad |= at[field] < 0 || at[field] > (1 << 16);
        if (bad || at[3] > g_ints || at[4] > g_floats || at[5] + 3 * at[6] > g_ints
                || at[7] + at[8] > g_buffers || at[9] > n_extents)
            goto malformed;
        const int64_t dims = at[6];
        span->width = at[0];
        span->parallel = at[1] < 0;
        span->li = G + at[3];
        span->lf = F + at[4];
        span->rlb = G + at[5];
        span->rst = G + at[5] + 2 * dims;
        span->rlen = rlen + at[5];
        span->lp = lp + at[7];
        span->ls = ls + at[9];
        refusal = iteration_space(dims, span->rlb, G + at[5] + dims, span->rst, span->rlen,
                                  &span->total);
        if (refusal != NO_REFUSAL)
            goto done;
        if (licence(required, n_required, dims, span->rlen, pairs, n_pairs, at[8], span->lp,
                    nbytes + at[7], span->total, &span->width, &span->mode) < 0)
            goto error;
        /* the team its work is divided over: its fixed size or the threads,
         * never more than its units */
        const int64_t team = at[1] > 0 ? at[1] : threads;
        span->speedup = charge[1 + (team < span->total ? team : span->total > 1 ? span->total : 1)];
        span->fork = span->parallel ? charge[1] : 0.0;
        span->sync = span->parallel || at[2] ? 0.0 : charge[0];
        PyObject *address = PyDict_GetItemWithError(functions, PyTuple_GET_ITEM(symbols, index));
        span->function = address == NULL ? NULL : (region_fn)PyLong_AsVoidPtr(address);
        if (span->function == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_KeyError, "a span's function is missing from the unit");
            goto error;
        }
    }

    /* the steps, checked before the first runs */
    const int64_t *steps = words(&c, 2 * n_steps);
    int depth = 0;
    for (index = 0; index < n_steps && !c.bad; ++index) {
        const int64_t kind = steps[2 * index], argument = steps[2 * index + 1];
        depth += kind == STEP_OPEN ? 1 : kind == STEP_CLOSE ? -1 : 0;
        c.bad |= kind < STEP_OPS || kind > STEP_SPAN || depth < 0 || depth >= MAX_FRAMES
                 || (kind == STEP_CHARGE && (argument < 2 + n_speedups || argument >= n_charges))
                 || (kind == STEP_SPAN && (argument < 0 || argument >= n_spans));
    }
    if (c.bad || depth != 0 || c.at != c.end)
        goto malformed;

    /* the run: one release of the lock, the spans in order, the Python's
     * accounting replayed addition for addition */
    const double sync = charge[0], fork = charge[1];
    double frames[MAX_FRAMES] = {0.0}, global_bytes = 0.0;
    int64_t ops = 0, regions = 0, loops = 0, barriers = 0, dispatches = 0, error = 0;
    Py_BEGIN_ALLOW_THREADS
    for (index = 0; index < n_steps && !error; ++index) {
        const int64_t argument = steps[2 * index + 1];
        switch (steps[2 * index]) {
        case STEP_OPS:
            ops += argument;
            break;
        case STEP_CHARGE:
            frames[depth] += charge[argument];
            break;
        case STEP_OPEN:
            regions += 1;
            frames[++depth] = 0.0;
            break;
        case STEP_CLOSE:
            depth -= 1;
            frames[depth] += fork + frames[depth + 1];
            break;
        case STEP_BARRIER:
            barriers += 1;
            frames[depth] += sync;
            break;
        default: {
            span_call *span = &spans[argument];
            double outf[2];
            int64_t outi[2];
            span->function(span->li, span->lf, span->K, span->lp, span->ls, span->rlb,
                           span->rst, span->rlen, span->total, span->mode, span->width,
                           outf, outi);
            regions += span->parallel;
            loops += !span->parallel;
            error = outi[1];
            if (error)
                break;
            dispatches += 1;
            ops += outi[0];
            global_bytes += outf[1];
            /* a workshared loop's wall, plus its barrier; an scf.parallel's
             * fork and wall (adding the other's 0.0 changes no bit) */
            frames[depth] += span->fork + (outf[0] / span->speedup + span->sync);
        }
        }
    }
    Py_END_ALLOW_THREADS
    result = Py_BuildValue("(dLdLLLLL)", frames[0], (long long)ops, global_bytes,
                           (long long)regions, (long long)loops, (long long)barriers,
                           (long long)dispatches, (long long)error);
    goto release;

refused_or_error:
    refusal = REFUSE_SCALAR;
    if (status > 0)
        goto done;
    goto error;
malformed:
    PyErr_SetString(PyExc_ValueError, "malformed dispatch contract layout");
error:
    result = NULL;
    goto release;
done:
    result = PyLong_FromLong(refusal);
release:
    for (index = 0; index < acquired; ++index)
        PyBuffer_Release(&views[index]);
    return result;
}

static PyObject *call(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 4 || !PyDict_Check(args[0]) || !PyTuple_Check(args[2])
            || PyTuple_GET_SIZE(args[2]) != 7) {
        PyErr_SetString(PyExc_TypeError, "call(functions, host, contract, arguments): "
                        "a dict, a host address or None, a contract tuple and the "
                        "arguments");
        return NULL;
    }
    PyObject *contract = args[2], *arguments = args[3];
    host_fn host = args[1] == Py_None ? NULL : (host_fn)PyLong_AsVoidPtr(args[1]);
    PyObject *layout = PyTuple_GET_ITEM(contract, 2), *charges = PyTuple_GET_ITEM(contract, 3);
    if (PyErr_Occurred() || !PyType_Check(PyTuple_GET_ITEM(contract, 0))
            || !PyType_Check(PyTuple_GET_ITEM(contract, 1)) || !PyBytes_Check(layout)
            || !PyBytes_Check(charges) || !PyTuple_Check(PyTuple_GET_ITEM(contract, 4))
            || !PyTuple_Check(PyTuple_GET_ITEM(contract, 5))
            || !PyTuple_Check(PyTuple_GET_ITEM(contract, 6))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "malformed dispatch contract");
        return NULL;
    }
    const int64_t *start = (const int64_t *)PyBytes_AS_STRING(layout);
    cursor c = {start, start + PyBytes_GET_SIZE(layout) / (Py_ssize_t)sizeof(int64_t), 0};
    const int64_t *header = words(&c, 14);
    int bad = c.bad;
    /* the counts that size arrays on this stack (not n_speedups, a team) */
    for (int index = 0; !bad && index < 13; ++index)
        bad = header[index] < 0 || (index != 7 && header[index] > (1 << 16));
    if (bad || header[6] < 1 || header[6] > header[7] || header[12] > 1
            || PyBytes_GET_SIZE(charges) / (Py_ssize_t)sizeof(double) < 2 + header[7]
            || PyTuple_GET_SIZE(PyTuple_GET_ITEM(contract, 4)) != header[4]
            || PyTuple_GET_SIZE(PyTuple_GET_ITEM(contract, 5)) != header[3]
            || PyTuple_GET_SIZE(PyTuple_GET_ITEM(contract, 6)) != header[3]) {
        PyErr_SetString(PyExc_ValueError, "malformed dispatch contract layout");
        return NULL;
    }
    /* an entry's arguments: a list or tuple of its arity */
    if (!(PyList_Check(arguments) || PyTuple_Check(arguments))
            || (header[13] >= 0 && PySequence_Fast_GET_SIZE(arguments) != header[13]))
        return PyLong_FromLong(REFUSE_SCALAR);
    return enter(args[0], host, contract, arguments, header, c);
}

static PyObject *probe(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    (void)args;
    (void)nargs;
    int n = 0;
#pragma omp parallel for reduction(+:n)
    for (int i = 0; i < 4; ++i)
        n += 1;
    return PyLong_FromLong(n);
}

static PyMethodDef methods[] = {
    {"call", (PyCFunction)(void (*)(void))call, METH_FASTCALL,
     "call(functions, host, contract, arguments): one native run of a contract's "
     "spans, or a refusal code."},
    {"probe", (PyCFunction)(void (*)(void))probe, METH_FASTCALL,
     "probe(): an OpenMP reduction over four iterations (4)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT, "_dispatch", "The native engine's dispatcher.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__dispatch(void)
{
    name_array = PyUnicode_InternFromString("array");
    name_freed = PyUnicode_InternFromString("freed");
    name_memory_space = PyUnicode_InternFromString("memory_space");
    name_global = PyUnicode_InternFromString("global");
    if (name_array == NULL || name_freed == NULL || name_memory_space == NULL
            || name_global == NULL)
        return NULL;
    return PyModule_Create(&definition);
}
