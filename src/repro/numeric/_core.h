/* The compiled core's interface: read by cffi (repro/numeric/compiled.py
 * passes this file to FFI.cdef) and included by _core.c, so the two cannot
 * disagree.  cffi's parser takes no #include: the includer provides
 * <stdint.h>. */

/* The Fortran BLAS/LAPACK signatures scipy.linalg.cython_blas and
 * cython_lapack export. */
typedef void (*repro_dgemm_t)(char *, char *, int *, int *, int *, double *,
                              double *, int *, double *, int *, double *,
                              double *, int *);
typedef void (*repro_dgemv_t)(char *, int *, int *, double *, double *,
                              int *, double *, int *, double *, double *,
                              int *);
typedef void (*repro_dtrsm_t)(char *, char *, char *, char *, int *, int *,
                              double *, double *, int *, double *, int *);
typedef void (*repro_dsyrk_t)(char *, char *, int *, int *, double *,
                              double *, int *, double *, double *, int *);
typedef void (*repro_dpotrf_t)(char *, int *, double *, int *, int *);
typedef void (*repro_dgetrf_t)(int *, int *, double *, int *, int *, int *);

typedef struct {
    repro_dgemm_t dgemm;
    repro_dgemv_t dgemv;
    repro_dtrsm_t dtrsm;
    repro_dsyrk_t dsyrk;
    repro_dpotrf_t dpotrf;
    repro_dgetrf_t dgetrf;
} repro_blas_t;

/* Set once, at import; the unit's only global state. */
extern repro_blas_t repro_blas;

#define REPRO_NON_SPD 1
#define REPRO_NON_FINITE 2
#define REPRO_ZERO_PIVOT 3
#define REPRO_NO_MEMORY 4
#define REPRO_BAD_ORDER 5  /* the ordering placed pos vertices, not n */
#define REPRO_SINGULAR 6   /* no perfect matching of rows and columns */

typedef struct {
    int64_t code;   /* 0, or one of the REPRO_* codes */
    int64_t sn;     /* the supernode that failed (-1 outside a job) */
    int64_t pos;    /* the failing pivot's front position */
    double pivot;   /* its value */
} repro_status;

/* A NumericContext's flat maps (see _core.c). */
typedef struct {
    int64_t n_sn;
    const int64_t *layout;     /* n_sn x 5: k, m, P|R start, R start, end */
    const int64_t *first;      /* first pivot row */
    const int64_t *row_off;    /* front rows: rows[row_off[i]:row_off[i+1]] */
    const int64_t *rows;
    const int64_t *kid_off;    /* children passing an update block up:  */
    const int64_t *kids;       /* kids[kid_off[i]:kid_off[i+1]], ascending */
    const int64_t *cm_off;     /* a child passing an update block up: */
    const int64_t *cm;         /* its rows' positions in the parent's
                                  front, cm[cm_off[i]:cm_off[i] + m] */
    const int64_t *task_bounds;
    const int64_t *dst;        /* A's scatter: buf[dst[j]] = values[src[j]] */
    const int64_t *src;
    int64_t n_entries;
    int64_t max_k, max_m;
} repro_ctx;

/* One factorization's state (opaque outside _core.c). */
typedef struct repro_job repro_job;

int repro_front(double *P, double *R, double *C, int64_t k, int64_t m,
                int64_t bs, double perturb, int lu, int64_t *bumped,
                repro_status *st);
repro_job *repro_job_new(const repro_ctx *ctx, double *buf,
                         const double *values, int64_t *bumped,
                         int64_t block, double perturb, int lu);
int64_t repro_job_pending(const repro_job *job);
void repro_job_free(repro_job *job);
int repro_run_task(repro_job *job, int64_t t, repro_status *st);
int repro_solve(const repro_ctx *c, const double *buf, double *y,
                int64_t nrhs, int lu);

/* The approximate minimum degree permutation (new -> old) of the graph
 * indptr/indices (each vertex's neighbours, no self-loops, none twice),
 * into perm (n entries); subtrees of at most foldable columns go last
 * among their siblings.  Returns 0, REPRO_NO_MEMORY or REPRO_BAD_ORDER
 * (also in st->code; st->pos is how many vertices were placed). */
int repro_amd(int64_t n, const int64_t *indptr, const int64_t *indices,
              int64_t foldable, int64_t *perm, repro_status *st);

/* -- the symbolic analysis and static pivoting ---------------------------
 * Each returns 0 or REPRO_NO_MEMORY unless it says otherwise; the inputs
 * are checked by their callers in repro/numeric/compiled.py. */

/* Liu's elimination tree of the n x n pattern indptr/indices (column j
 * read up to its first row >= j) into parent (-1 for roots). */
int repro_etree(int64_t n, const int64_t *indptr, const int64_t *indices,
                int64_t *parent);
/* Each vertex's height above the leaves of the elimination tree parent
 * (every parent above its child). */
void repro_etree_heights(int64_t n, const int64_t *parent, int64_t *heights);
/* A postorder of the forest parent (roots ascending, children
 * ascending) into post; REPRO_BAD_ORDER if parent is not a forest. */
int repro_postorder(int64_t n, const int64_t *parent, int64_t *post);
/* Gilbert-Ng-Peyton column counts of L, visiting the columns in the
 * postorder post (NULL: 0, 1, ..., n - 1). */
int repro_column_counts(int64_t n, const int64_t *indptr,
                        const int64_t *indices, const int64_t *parent,
                        const int64_t *post, int64_t *counts);
/* Relaxed amalgamation of the supernode tree first/last/size/sn_parent:
 * the *nkeep survivors into keep (ascending) with their first columns
 * into keep_first. */
int repro_merge(int64_t nsn, const int64_t *first, const int64_t *last,
                const int64_t *size, const int64_t *sn_parent,
                double relax_small, double relax_ratio, double force_small,
                int64_t *keep, int64_t *keep_first, int64_t *nkeep);
/* The front rows of each supernode of a postordered pattern -- its
 * columns, then the sorted union above last[k] of its columns' rows and
 * its children's -- as rows[row_off[k]:row_off[k + 1]] of one array
 * allocated into *rows (release it with repro_free). */
int repro_sn_rows(int64_t n, const int64_t *indptr, const int64_t *indices,
                  int64_t nsn, const int64_t *first, const int64_t *last,
                  const int64_t *sn_parent, int64_t *row_off,
                  int64_t **rows);
void repro_free(void *p);
/* The static-pivoting row matching (match_col[j] = row of column j):
 * greedy over the columns in col_order by descending mag, then Kuhn
 * augmentation; REPRO_SINGULAR if no perfect matching exists. */
int repro_static_pivot(int64_t n, const int64_t *indptr,
                       const int64_t *indices, const double *mag,
                       const int64_t *col_order, int64_t *match_col);
/* The adjacency of the pattern of A + A^T without its diagonal, each
 * list ascending, into gptr (n + 1) and gind (at most 2 nnz). */
int repro_pattern_graph(int64_t n, const int64_t *indptr,
                        const int64_t *indices, int64_t *gptr,
                        int64_t *gind);
