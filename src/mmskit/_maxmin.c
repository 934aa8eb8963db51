/* The max-min partition search of _kernels_py._max_min_search, in C.

   It visits the same nodes in the same order as the pure loop: the same
   restricted-growth labelings, the same two bounds, the same
   exhausted-state set and the same last-item pass, so both return the same
   (best, labels, nodes) on every table.  _kernels_py documents the search;
   the comments here cover only what C adds.

   Arithmetic is int64.  The entry point refuses a table whose sum over
   items of the largest entry, T, reaches 2^62: every bundle row sum, every
   bundle value and every remaining-items bound is at most T, so the largest
   intermediate, a bound plus a sum of bundle values, stays below 2^63.

   engine builds this file on first use into the package's __pycache__ with
   cc -O2 -shared -fPIC and falls back to the pure loop when it cannot. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TABLE_LIMIT ((int64_t)1 << 62)

/* Exhausted-state set: open addressing with linear probing.  Slot i holds
   a nonzero hash in hash[i] (0 marks it empty) and its key, the bundle
   row sums sorted lexicographically, at key[i * width]. */
typedef struct {
    size_t width, cap, count;
    uint64_t *hash;
    int64_t *key;
} StateSet;

static uint64_t key_hash(const int64_t *key, size_t width)
{
    uint64_t h = 0x9e3779b97f4a7c15u;
    for (size_t i = 0; i < width; i++) {
        h = (h ^ (uint64_t)key[i]) * 0xbf58476d1ce4e5b9u;
        h ^= h >> 31;
    }
    return h ? h : 1;
}

/* The slot holding key, or the empty slot where it would go. */
static size_t set_slot(const StateSet *set, const int64_t *key, uint64_t h)
{
    size_t mask = set->cap - 1, i = (size_t)h & mask;
    while (set->hash[i] &&
           (set->hash[i] != h ||
            memcmp(set->key + i * set->width, key, set->width * sizeof(int64_t))))
        i = (i + 1) & mask;
    return i;
}

static int set_contains(const StateSet *set, const int64_t *key, uint64_t h)
{
    return set->cap && set->hash[set_slot(set, key, h)] != 0;
}

/* Doubles the table (or creates it); -1 when memory runs out. */
static int set_grow(StateSet *set)
{
    StateSet bigger = *set;
    bigger.cap = set->cap ? 2 * set->cap : 64;
    if (bigger.cap > SIZE_MAX / sizeof(int64_t) / set->width)
        return -1;
    bigger.hash = calloc(bigger.cap, sizeof(uint64_t));
    bigger.key = malloc(bigger.cap * set->width * sizeof(int64_t));
    if (!bigger.hash || !bigger.key) {
        free(bigger.hash);
        free(bigger.key);
        return -1;
    }
    for (size_t i = 0; i < set->cap; i++) {
        if (!set->hash[i])
            continue;
        const int64_t *key = set->key + i * set->width;
        size_t s = set_slot(&bigger, key, set->hash[i]);
        bigger.hash[s] = set->hash[i];
        memcpy(bigger.key + s * set->width, key, set->width * sizeof(int64_t));
    }
    free(set->hash);
    free(set->key);
    *set = bigger;
    return 0;
}

/* Adds key unless present; -1 when memory runs out. */
static int set_add(StateSet *set, const int64_t *key, uint64_t h)
{
    if (2 * (set->count + 1) > set->cap && set_grow(set) < 0)
        return -1;
    size_t s = set_slot(set, key, h);
    if (!set->hash[s]) {
        set->hash[s] = h;
        memcpy(set->key + s * set->width, key, set->width * sizeof(int64_t));
        set->count++;
    }
    return 0;
}

/* Search of an l x m row-major table for n >= 2 bundles and m >= 2 items,
   entries non-negative with T below 2^62.  Sets *best, *nodes and, when a
   leaf beat floor, *found and labels[0..m).  Returns -1 when memory runs
   out, with no answer. */
static int mm_search(const int64_t *rows, int l, int m, int n, int64_t floor,
                     int64_t target, int64_t *best_out, int *labels,
                     int *found, uint64_t *nodes_out)
{
    const int last = m - 1;
    const size_t width = (size_t)n * l;
    int64_t best = floor;
    uint64_t nodes = 0;
    int status = -1, j;
    StateSet done = {width, 0, 0, NULL, NULL};

    /* cols[j * l + r] is row r's entry for item j */
    int64_t *cols = malloc((size_t)m * l * sizeof(int64_t));
    int64_t *remmax = malloc((size_t)(m + 1) * sizeof(int64_t));
    int64_t *remtot = malloc((size_t)(m + 1) * sizeof(int64_t));
    int64_t *acc = calloc((size_t)l, sizeof(int64_t));
    int64_t *sums = calloc(width, sizeof(int64_t)); /* bundle g, row r at g * l + r */
    int64_t *val = calloc((size_t)n, sizeof(int64_t));
    int64_t *vs = malloc((size_t)n * sizeof(int64_t));
    int64_t *saved = malloc((size_t)m * sizeof(int64_t)); /* val[lab[j]] before item j */
    int64_t *keys = malloc((size_t)m * width * sizeof(int64_t)); /* level k's state */
    uint64_t *keyhash = malloc((size_t)m * sizeof(uint64_t));
    int *order = malloc((size_t)n * sizeof(int));
    int *lab = malloc((size_t)m * sizeof(int));
    int *lim = malloc((size_t)m * sizeof(int));
    int *used = calloc((size_t)m, sizeof(int)); /* bundles used by items 0..j-1 */
    if (!cols || !remmax || !remtot || !acc || !sums || !val || !vs || !saved ||
        !keys || !keyhash || !order || !lab || !lim || !used)
        goto out;

    remmax[m] = remtot[m] = 0;
    for (j = m - 1; j >= 0; j--) {
        int64_t most = 0, top = 0;
        for (int r = 0; r < l; r++) {
            int64_t x = rows[(size_t)r * m + j];
            cols[(size_t)j * l + r] = x;
            acc[r] += x;
            if (acc[r] > most)
                most = acc[r];
            if (x > top)
                top = x;
        }
        remmax[j] = most;
        remtot[j] = remtot[j + 1] + top;
    }
    for (j = 0; j < m; j++)
        lab[j] = -1;
    *found = 0;
    lim[0] = 1;
    j = 0;
    while (j >= 0) {
        const int64_t *col = cols + (size_t)j * l;
        int c = lab[j];
        if (c >= 0) {
            for (int r = 0; r < l; r++)
                sums[(size_t)c * l + r] -= col[r];
            val[c] = saved[j];
        }
        c++;
        if (c == lim[j]) {
            /* levels 1..last-2 entered with their state recorded in keys */
            if (j >= 1 && j < last - 1 &&
                set_add(&done, keys + (size_t)j * width, keyhash[j]) < 0)
                goto out;
            lab[j] = -1;
            j--;
            continue;
        }
        lab[j] = c;
        nodes++;
        saved[j] = val[c];
        int64_t *s = sums + (size_t)c * l;
        int64_t most = 0;
        for (int r = 0; r < l; r++) {
            s[r] += col[r];
            if (s[r] > most)
                most = s[r];
        }
        val[c] = most;
        const int k = j + 1;
        for (int g = 0; g < n; g++) {
            int64_t x = val[g];
            int h = g;
            while (h > 0 && vs[h - 1] > x) {
                vs[h] = vs[h - 1];
                h--;
            }
            vs[h] = x;
        }
        const int64_t low = vs[0];
        if (low + remmax[k] <= best)
            continue;
        const int64_t rt = remtot[k];
        int64_t total = low;
        int q;
        for (q = 1; q < n; q++) {
            total += vs[q];
            if ((total + rt) / (q + 1) <= best)
                break;
        }
        if (q < n)
            continue;
        const int u = used[j] > c + 1 ? used[j] : c + 1;
        const int width_next = u + 1 < n ? u + 1 : n;
        if (k < last) {
            if (k < last - 1) {
                /* bundles sorted lexicographically by their row sums */
                for (int g = 0; g < n; g++) {
                    int h = g;
                    while (h > 0) {
                        const int64_t *a = sums + (size_t)order[h - 1] * l;
                        const int64_t *b = sums + (size_t)g * l;
                        int r = 0;
                        while (r < l && a[r] == b[r])
                            r++;
                        if (r == l || a[r] < b[r])
                            break;
                        order[h] = order[h - 1];
                        h--;
                    }
                    order[h] = g;
                }
                int64_t *key = keys + (size_t)k * width;
                for (int g = 0; g < n; g++)
                    memcpy(key + (size_t)g * l, sums + (size_t)order[g] * l,
                           (size_t)l * sizeof(int64_t));
                keyhash[k] = key_hash(key, width);
                if (set_contains(&done, key, keyhash[k]))
                    continue;
            }
            used[k] = u;
            lim[k] = width_next;
            j = k;
            continue;
        }
        /* the last item: every label in one pass */
        const int64_t *lc = cols + (size_t)last * l;
        for (int g = 0; g < width_next; g++) {
            const int64_t *sg = sums + (size_t)g * l;
            int64_t v = sg[0] + lc[0];
            for (int r = 1; r < l; r++)
                if (sg[r] + lc[r] > v)
                    v = sg[r] + lc[r];
            const int64_t other = val[g] == low ? vs[1] : low;
            if (v > other)
                v = other;
            if (v > best) {
                best = v;
                memcpy(labels, lab, (size_t)last * sizeof(int));
                labels[last] = g;
                *found = 1;
                if (v >= target)
                    goto finish;
            }
        }
    }
finish:
    *best_out = best;
    *nodes_out = nodes;
    status = 0;
out:
    free(done.hash);
    free(done.key);
    free(cols);
    free(remmax);
    free(remtot);
    free(acc);
    free(sums);
    free(val);
    free(vs);
    free(saved);
    free(keys);
    free(keyhash);
    free(order);
    free(lab);
    free(lim);
    free(used);
    return status;
}

/* Reads rows (a sequence of equal-length sequences of ints) into a new
   row-major table; NULL with an exception set on bad input. */
static int64_t *read_table(PyObject *rows_obj, Py_ssize_t *l_out, Py_ssize_t *m_out)
{
    PyObject *rows = PySequence_Fast(rows_obj, "rows must be a sequence");
    if (!rows)
        return NULL;
    int64_t *table = NULL, *colmax = NULL;
    Py_ssize_t l = PySequence_Fast_GET_SIZE(rows), m = 0;
    for (Py_ssize_t r = 0; r < l; r++) {
        PyObject *row = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, r),
                                        "each row must be a sequence");
        if (!row)
            goto fail;
        Py_ssize_t len = PySequence_Fast_GET_SIZE(row);
        if (r == 0) {
            m = len;
            if (m < 2 || m > INT_MAX / 2 || l > INT_MAX / m) {
                Py_DECREF(row);
                PyErr_SetString(PyExc_ValueError, "need at least two items");
                goto fail;
            }
            table = PyMem_Malloc((size_t)l * m * sizeof(int64_t));
            colmax = PyMem_Calloc((size_t)m, sizeof(int64_t));
            if (!table || !colmax) {
                Py_DECREF(row);
                PyErr_NoMemory();
                goto fail;
            }
        }
        else if (len != m) {
            Py_DECREF(row);
            PyErr_SetString(PyExc_ValueError, "rows differ in length");
            goto fail;
        }
        for (Py_ssize_t j = 0; j < m; j++) {
            int overflow;
            long long x = PyLong_AsLongLongAndOverflow(
                PySequence_Fast_GET_ITEM(row, j), &overflow);
            if (x == -1 && PyErr_Occurred()) {
                Py_DECREF(row);
                goto fail;
            }
            if (overflow > 0 || x >= TABLE_LIMIT) {
                Py_DECREF(row);
                PyErr_SetString(PyExc_OverflowError, "table too large for int64");
                goto fail;
            }
            if (overflow < 0 || x < 0) {
                Py_DECREF(row);
                PyErr_SetString(PyExc_ValueError, "entries must be non-negative");
                goto fail;
            }
            table[r * m + j] = x;
            if (x > colmax[j])
                colmax[j] = x;
        }
        Py_DECREF(row);
    }
    if (l < 1) {
        PyErr_SetString(PyExc_ValueError, "need at least one row");
        goto fail;
    }
    int64_t total = 0;
    for (Py_ssize_t j = 0; j < m; j++) {
        total += colmax[j]; /* each term is below 2^62, so no overflow */
        if (total >= TABLE_LIMIT) {
            PyErr_SetString(PyExc_OverflowError, "table too large for int64");
            goto fail;
        }
    }
    PyMem_Free(colmax);
    Py_DECREF(rows);
    *l_out = l;
    *m_out = m;
    return table;
fail:
    PyMem_Free(table);
    PyMem_Free(colmax);
    Py_DECREF(rows);
    return NULL;
}

static PyObject *search(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *rows_obj;
    Py_ssize_t n, l, m;
    long long floor, target;
    if (!PyArg_ParseTuple(args, "OnLL:search", &rows_obj, &n, &floor, &target))
        return NULL;
    if (n < 2 || n > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "need at least two bundles");
        return NULL;
    }
    int64_t *table = read_table(rows_obj, &l, &m);
    if (!table)
        return NULL;
    if (n > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int64_t) / l / m) {
        PyMem_Free(table); /* the per-level state buffer would not fit */
        return PyErr_NoMemory();
    }
    int *labels = PyMem_Malloc((size_t)m * sizeof(int));
    if (!labels) {
        PyMem_Free(table);
        return PyErr_NoMemory();
    }
    int64_t best;
    uint64_t nodes;
    int found, status;
    Py_BEGIN_ALLOW_THREADS
    status = mm_search(table, (int)l, (int)m, (int)n, floor, target, &best,
                       labels, &found, &nodes);
    Py_END_ALLOW_THREADS
    PyMem_Free(table);
    PyObject *lab = NULL;
    if (status < 0)
        PyErr_NoMemory();
    else if (!found)
        lab = Py_NewRef(Py_None);
    else if ((lab = PyList_New(m)))
        for (Py_ssize_t j = 0; j < m; j++)
            PyList_SET_ITEM(lab, j, PyLong_FromLong(labels[j])); /* small ints */
    PyMem_Free(labels);
    return lab ? Py_BuildValue("(LNK)", (long long)best, lab,
                               (unsigned long long)nodes)
               : NULL;
}

static PyMethodDef methods[] = {
    {"search", search, METH_VARARGS,
     "search(rows, n, floor, target) -> (best, labels or None, nodes)\n\n"
     "_kernels_py._max_min_search in C, for tables whose sum over items of\n"
     "the largest entry is below 2**62."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_maxmin", "The max-min partition search in C.", -1,
    methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__maxmin(void)
{
    return PyModule_Create(&module);
}
