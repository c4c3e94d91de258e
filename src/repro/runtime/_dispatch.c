/* The native engine's dispatcher: one CPython extension, built once per
 * artifact cache by the toolchain probe (repro.runtime.native).
 *
 * probe()                        the OpenMP reduction the probe checks: 4.
 * run(function, contract, regs)  one native dispatch of a region: what the
 *     C code of the region was specialized for is checked against the live-in
 *     values in ``regs`` (a list), in a fixed order -- the int scalars, the
 *     float scalars, then per buffer: a MemRefStorage, not freed, dtype,
 *     rank, C layout, memory space, writable if stored -- then the iteration
 *     space is read and the licence decided, and the region's function
 *     (the address ``function``, the region ABI of codegen_c) is called with
 *     the interpreter lock released.  Returns ``(work, global_bytes, ops,
 *     error, total)``, or a refusal code (``REFUSE_*``, the index of its
 *     name in native._REFUSALS) when a check fails; nothing is called then.
 *
 * ``contract`` is native._Contract, a tuple:
 *     (storage type, K as int64 bytes, width, required dims or None,
 *      int slots, float slots, bound slots (lower..., upper..., step...),
 *      buffers: (slot, accepted buffer formats, rank, space, stored)...,
 *      alias pairs: (first, second)...)
 * Every buffer acquired is released on every way out; the buffers keep
 * their arrays alive while the lock is released. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <omp.h>

typedef void (*region_fn)(const int64_t *LI, const double *LF, const int64_t *K,
                          void *const *LP, const int64_t *LS, const int64_t *RLB,
                          const int64_t *RST, const int64_t *RLEN, int64_t total,
                          int64_t mode, int64_t width, double *outf, int64_t *outi);

enum {
    REFUSE_SCALAR, REFUSE_FREED, REFUSE_DTYPE, REFUSE_RANK, REFUSE_LAYOUT,
    REFUSE_SPACE, REFUSE_READ_ONLY, REFUSE_STEP
};

/* minimum iterations before a span is worth an OpenMP team. */
#define MIN_PARALLEL_UNITS 64

static PyObject *name_array, *name_freed, *name_memory_space;

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

static PyObject *slot_item(PyObject *regs, PyObject *slots, Py_ssize_t index)
{
    Py_ssize_t slot = PyLong_AsSsize_t(PyTuple_GET_ITEM(slots, index));
    if (slot == -1 && PyErr_Occurred())
        return NULL;
    if (slot < 0 || slot >= PyList_GET_SIZE(regs)) {
        PyErr_Format(PyExc_IndexError, "register slot %zd out of range", slot);
        return NULL;
    }
    return PyList_GET_ITEM(regs, slot);
}

static int64_t tuple_int(PyObject *tuple, Py_ssize_t index)
{
    return PyLong_AsLongLong(PyTuple_GET_ITEM(tuple, index));
}

static PyObject *run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3 || !PyTuple_Check(args[1]) || PyTuple_GET_SIZE(args[1]) != 9
            || !PyList_CheckExact(args[2])) {
        PyErr_SetString(PyExc_TypeError, "run(function, contract, regs): "
                        "a region address, a contract tuple and a list");
        return NULL;
    }
    region_fn function = (region_fn)PyLong_AsVoidPtr(args[0]);
    if (function == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "null region function");
        return NULL;
    }
    PyObject *contract = args[1], *regs = args[2];
    PyObject *storage_type = PyTuple_GET_ITEM(contract, 0);
    PyObject *costs = PyTuple_GET_ITEM(contract, 1);
    int64_t width = PyLong_AsLongLong(PyTuple_GET_ITEM(contract, 2));
    PyObject *required = PyTuple_GET_ITEM(contract, 3);
    PyObject *ints = PyTuple_GET_ITEM(contract, 4);
    PyObject *floats = PyTuple_GET_ITEM(contract, 5);
    PyObject *bounds = PyTuple_GET_ITEM(contract, 6);
    PyObject *buffers = PyTuple_GET_ITEM(contract, 7);
    PyObject *pairs = PyTuple_GET_ITEM(contract, 8);
    if (!PyType_Check(storage_type) || !PyBytes_Check(costs) || !PyTuple_Check(ints)
            || !PyTuple_Check(floats) || !PyTuple_Check(bounds) || !PyTuple_Check(buffers)
            || !PyTuple_Check(pairs) || (required != Py_None && !PyTuple_Check(required))) {
        PyErr_SetString(PyExc_TypeError, "malformed dispatch contract");
        return NULL;
    }
    if (width == -1 && PyErr_Occurred())
        return NULL;

    const Py_ssize_t n_ints = PyTuple_GET_SIZE(ints), n_floats = PyTuple_GET_SIZE(floats);
    const Py_ssize_t n_buffers = PyTuple_GET_SIZE(buffers), dims = PyTuple_GET_SIZE(bounds) / 3;
    const Py_ssize_t n_costs = PyBytes_GET_SIZE(costs) / (Py_ssize_t)sizeof(int64_t);
    int64_t li[n_ints + 1], K[n_costs + 1], rlb[dims + 1], rst[dims + 1], rlen[dims + 1];
    double lf[n_floats + 1];
    void *lp[n_buffers + 1];
    Py_ssize_t nbytes[n_buffers + 1];
    Py_buffer views[n_buffers + 1];
    Py_ssize_t acquired = 0, n_extents = 0, index;
    PyObject *result = NULL;
    int refusal = -1, status;

    /* the extents of every buffer, in order: first their count. */
    for (index = 0; index < n_buffers; ++index) {
        PyObject *spec = PyTuple_GET_ITEM(buffers, index);
        if (!PyTuple_Check(spec) || PyTuple_GET_SIZE(spec) != 5) {
            PyErr_SetString(PyExc_TypeError, "malformed buffer contract");
            return NULL;
        }
        n_extents += PyLong_AsSsize_t(PyTuple_GET_ITEM(spec, 2));
    }
    if (PyErr_Occurred())
        return NULL;
    int64_t ls[n_extents + 1];
    memcpy(K, PyBytes_AS_STRING(costs), (size_t)n_costs * sizeof(int64_t));

    /* scalars: ints, then floats */
    for (index = 0; index < n_ints; ++index) {
        PyObject *value = slot_item(regs, ints, index);
        if (value == NULL)
            return NULL;
        status = as_int64(value, &li[index]);
        if (status)
            return status < 0 ? NULL : PyLong_FromLong(REFUSE_SCALAR);
    }
    for (index = 0; index < n_floats; ++index) {
        PyObject *value = slot_item(regs, floats, index);
        if (value == NULL)
            return NULL;
        status = as_double(value, &lf[index]);
        if (status)
            return status < 0 ? NULL : PyLong_FromLong(REFUSE_SCALAR);
    }

    /* buffers: every check of one before the next one's */
    Py_ssize_t extent = 0;
    for (index = 0; index < n_buffers; ++index) {
        PyObject *spec = PyTuple_GET_ITEM(buffers, index);
        PyObject *storage = slot_item(regs, spec, 0);
        PyObject *formats = PyTuple_GET_ITEM(spec, 1);
        Py_ssize_t rank = PyLong_AsSsize_t(PyTuple_GET_ITEM(spec, 2));
        PyObject *space = PyTuple_GET_ITEM(spec, 3);
        int stored = PyObject_IsTrue(PyTuple_GET_ITEM(spec, 4));
        if (storage == NULL || stored < 0 || !PyTuple_Check(formats))
            goto error;
        if (!PyObject_TypeCheck(storage, (PyTypeObject *)storage_type)) {
            refusal = REFUSE_SCALAR;
            goto done;
        }
        PyObject *attribute = PyObject_GetAttr(storage, name_freed);
        if (attribute == NULL)
            goto error;
        status = PyObject_IsTrue(attribute);
        Py_DECREF(attribute);
        if (status < 0)
            goto error;
        if (status) {
            refusal = REFUSE_FREED;
            goto done;
        }
        attribute = PyObject_GetAttr(storage, name_array);
        if (attribute == NULL)
            goto error;
        status = PyObject_GetBuffer(attribute, &views[index], PyBUF_RECORDS_RO);
        Py_DECREF(attribute);
        if (status < 0) {
            /* no buffer (a dtype the protocol cannot describe, or no array) */
            if (!(PyErr_ExceptionMatches(PyExc_BufferError) || refusable()))
                goto error;
            PyErr_Clear();
            refusal = REFUSE_DTYPE;
            goto done;
        }
        acquired = index + 1;
        Py_buffer *view = &views[index];
        const char *format = view->format != NULL ? view->format : "B";
        Py_ssize_t accepted = PyTuple_GET_SIZE(formats), candidate;
        for (candidate = 0; candidate < accepted; ++candidate) {
            PyObject *name = PyTuple_GET_ITEM(formats, candidate);
            if (PyBytes_Check(name) && strcmp(PyBytes_AS_STRING(name), format) == 0)
                break;
        }
        if (candidate == accepted) {
            refusal = REFUSE_DTYPE;
            goto done;
        }
        if (view->ndim != rank) {
            refusal = REFUSE_RANK;
            goto done;
        }
        if (!PyBuffer_IsContiguous(view, 'C')) {
            refusal = REFUSE_LAYOUT;
            goto done;
        }
        attribute = PyObject_GetAttr(storage, name_memory_space);
        if (attribute == NULL)
            goto error;
        status = PyObject_RichCompareBool(attribute, space, Py_EQ);
        Py_DECREF(attribute);
        if (status < 0)
            goto error;
        if (!status) {
            refusal = REFUSE_SPACE;
            goto done;
        }
        if (stored && view->readonly) {
            refusal = REFUSE_READ_ONLY;
            goto done;
        }
        lp[index] = view->buf;
        nbytes[index] = view->len;
        for (Py_ssize_t dim = 0; dim < rank; ++dim)
            ls[extent++] = (int64_t)view->shape[dim];
    }

    /* the iteration space */
    int64_t total = 1;
    int empty = 0, overflow = 0;
    for (index = 0; index < dims; ++index) {
        int64_t ub, length;
        PyObject *lower = slot_item(regs, bounds, index);
        PyObject *upper = slot_item(regs, bounds, dims + index);
        PyObject *stride = slot_item(regs, bounds, 2 * dims + index);
        if (lower == NULL || upper == NULL || stride == NULL)
            goto error;
        if ((status = as_int64(lower, &rlb[index])) || (status = as_int64(upper, &ub))
                || (status = as_int64(stride, &rst[index]))) {
            if (status < 0)
                goto error;
            refusal = REFUSE_SCALAR;
            goto done;
        }
        if (rst[index] == 0) {
            refusal = REFUSE_STEP;
            goto done;
        }
        length = range_length(rlb[index], ub, rst[index]);
        overflow |= length < 0 || (length > 0 && __builtin_mul_overflow(total, length, &total));
        empty |= length == 0;
        rlen[index] = length;
    }
    if (empty)
        total = 0;
    else if (overflow) {
        refusal = REFUSE_SCALAR;
        goto done;
    }

    /* the licence to reorder iterations -- across a team's chunks or the
     * lanes of a block -- is the store-safety proof holding for these
     * live-ins: its required-singleton dims are 1 and no stored buffer
     * overlaps another.  The team also needs enough units to amortize it;
     * without the licence the plain path runs one lane at a time, the
     * sequential order. */
    int licensed = required != Py_None && (width > 1 || total >= MIN_PARALLEL_UNITS);
    for (index = 0; licensed && index < PyTuple_GET_SIZE(required); ++index) {
        int64_t dim = tuple_int(required, index);
        if (dim < 0 || dim >= dims) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "required dim out of range");
            goto error;
        }
        licensed = rlen[dim] == 1;
    }
    for (index = 0; licensed && index < PyTuple_GET_SIZE(pairs); ++index) {
        PyObject *pair = PyTuple_GET_ITEM(pairs, index);
        int64_t first = tuple_int(pair, 0), second = tuple_int(pair, 1);
        if (first < 0 || second < 0 || first >= n_buffers || second >= n_buffers) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "alias pair out of range");
            goto error;
        }
        uintptr_t start = (uintptr_t)lp[first], stop = start + (uintptr_t)nbytes[first];
        uintptr_t other = (uintptr_t)lp[second];
        licensed = !(start != stop && start < other + (uintptr_t)nbytes[second]
                     && other < stop);
    }

    double outf[2];
    int64_t outi[2];
    const int64_t mode = licensed && total >= MIN_PARALLEL_UNITS;
    width = licensed ? width : 1;
    Py_BEGIN_ALLOW_THREADS
    function(li, lf, K, lp, ls, rlb, rst, rlen, total, mode, width, outf, outi);
    Py_END_ALLOW_THREADS
    result = PyTuple_New(5);
    if (result == NULL)
        goto error;
    PyObject *items[5] = {PyFloat_FromDouble(outf[0]), PyFloat_FromDouble(outf[1]),
                          PyLong_FromLongLong(outi[0]), PyLong_FromLongLong(outi[1]),
                          PyLong_FromLongLong(total)};
    for (index = 0; index < 5; ++index) {
        if (items[index] == NULL) {
            Py_DECREF(result);
            result = NULL;
            for (Py_ssize_t other = index + 1; other < 5; ++other)
                Py_XDECREF(items[other]);
            goto error;
        }
        PyTuple_SET_ITEM(result, index, items[index]);
    }
    goto done;

error:
    refusal = -1;
done:
    for (index = 0; index < acquired; ++index)
        PyBuffer_Release(&views[index]);
    if (refusal >= 0)
        return PyLong_FromLong(refusal);
    return result;
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
    {"run", (PyCFunction)(void (*)(void))run, METH_FASTCALL,
     "run(function, contract, regs): one native dispatch, or a refusal code."},
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
    if (name_array == NULL || name_freed == NULL || name_memory_space == NULL)
        return NULL;
    return PyModule_Create(&definition);
}
