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

typedef struct {
    int64_t code;   /* 0, or one of the REPRO_* codes */
    int64_t sn;     /* the supernode that failed (-1 outside a job) */
    int64_t pos;    /* the failing pivot's front position */
    double pivot;   /* its value */
} repro_status;

/* A NumericContext's flat maps (see _core.c). */
typedef struct {
    int64_t n_sn;
    const int64_t *layout;     /* n_sn x 7: k, m, P|R start, R start, end,
                                  C's offset in the parent's arena or -1,
                                  parent */
    const int64_t *first;      /* first pivot row */
    const int64_t *row_off;    /* front rows: rows[row_off[i]:row_off[i+1]] */
    const int64_t *rows;
    const int64_t *kid_off;    /* children passing an update block up:  */
    const int64_t *kids;       /* kids[kid_off[i]:kid_off[i+1]], ascending */
    const int64_t *arena_len;  /* a grouped parent's arena length, else 0 */
    const int64_t *ea_off;     /* its extend-add map: ea[ea_off[i]:...] */
    const int64_t *ea;
    const int64_t *cm_off;     /* a child of a larger parent: its rows'  */
    const int64_t *cm;         /* positions in the parent's front        */
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
