/* Thread placement for the benchmark: see affinity.ml. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#ifdef __linux__
#include <errno.h>
#include <sched.h>
#endif

/* Confines thread [tid] of this process (0: the calling thread) to the
   CPUs in the array [cpus]. 0 when done, 1 when the thread has ended, 2
   when refused or not supported. */
value perfbench_pin(value tid, value cpus)
{
#ifdef __linux__
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c < 0 || c >= CPU_SETSIZE) return Val_int(2);
    CPU_SET(c, &set);
  }
  if (sched_setaffinity(Int_val(tid), sizeof set, &set) == 0) return Val_int(0);
  return Val_int(errno == ESRCH ? 1 : 2);
#else
  (void)tid;
  (void)cpus;
  return Val_int(2);
#endif
}

/* The CPUs the calling thread may run on, in increasing order; empty
   where unknown. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(r);
  r = Atom(0);
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    int i, j = 0;
    r = caml_alloc(CPU_COUNT(&set), 0);
    for (i = 0; i < CPU_SETSIZE; i++)
      if (CPU_ISSET(i, &set)) Store_field(r, j++, Val_int(i));
  }
#endif
  CAMLreturn(r);
}
