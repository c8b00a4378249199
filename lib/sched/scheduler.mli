(** Deterministic cooperative scheduler (OCaml 5 effect handlers).

    Simulated threads are fibers that {!yield} at every instrumented
    operation; the scheduler picks the next runnable fiber with a seeded
    {!Rng.t}, so every interleaving is replayable from its seed.

    A run ends when every fiber has finished or failed, at {e quiescence},
    or when the step budget runs out.  Quiescence is proven from evidence
    the runtime writes into the [spin] channel given to {!create}: every
    live fiber failed a spin-lock CAS and no PM write has happened since,
    so none of them can ever progress.  The fibers still suspended when a
    run ends this way, or at the budget, are killed and reported as hung
    — this is how lock hangs surface in the reproduction.  The budget
    stays the backstop for busy-waits the spin stamps do not cover. *)

exception Killed
(** Raised inside a fiber killed as hung. *)

type t

type outcome = {
  steps : int;  (** scheduling decisions taken *)
  finished : int list;  (** tids that ran to completion *)
  hung : (int * string) list;  (** tids (and names) killed at quiescence or budget *)
  failed : (int * string * exn) list;  (** tids that raised *)
}

val create : ?step_budget:int -> ?spin:int array -> rng:Rng.t -> unit -> t
(** [step_budget] bounds the number of scheduling decisions (default
    200_000); exhausting it classifies surviving fibers as hung.

    [spin] is the quiescence channel ({!Runtime.Env.spin_channel} builds
    it): cell [0] holds the PM write generation and cell [1 + tid] fiber
    [tid]'s spin stamp.  The runtime writes both in place; the scheduler
    only reads them.  A live fiber is proven stuck while its stamp equals
    the generation + 1, and a run whose every live fiber is proven stuck
    stops with those fibers hung — exactly the set the budget would have
    reported, in fewer steps.  Tids beyond the array are never
    stuck; the default empty channel leaves only the budget. *)

val spawn : t -> name:string -> (unit -> unit) -> int
(** Register a fiber; returns its tid (dense, starting at 0).  All fibers
    must be spawned before {!run}. *)

val yield : unit -> unit
(** Give up the processor.  Must be called from inside a fiber executed by
    {!run}; the runtime calls it at every preemption point. *)

val run : ?on_step:(int -> unit) -> t -> outcome
(** Execute all fibers to completion or failure, until quiescence, or
    until the budget runs out; fibers suspended at the end are reported
    hung.  Quiescence is checked every 64 steps, allocation-free: it is
    permanent once reached, so a run stops at most 63 steps after it.
    [on_step tid] is invoked before every scheduling step.

    The per-step cost is O(1) amortized in the number of fibers: the
    runnable set is a maintained spawn-ordered index array, not a list
    rebuilt every step.  The RNG stream and the resulting schedule are
    bit-identical to {!run_reference} (pinned by a property test), so
    seeded interleavings are stable across the optimisation.

    Metrics (when {!Obs.Metrics.enabled}): records the per-run step
    {e delta} into [sched_steps_total]/[sched_steps_per_run] — a reused
    scheduler value never double-counts — and samples the mean wall time
    per step into the [sched_step_seconds] histogram every 64th step.  A
    run that ends with hung fibers counts in [sched_quiescent_hangs_total]
    when every one was proven stuck, else in
    [sched_budget_exhausted_total]. *)

val run_reference : ?on_step:(int -> unit) -> t -> outcome
(** The legacy scheduling loop (rebuild-and-filter the runnable list every
    step, list-based {!Rng.pick}), kept as an executable specification of
    {!run}: same RNG stream, same schedule, same outcome — only the
    per-step cost differs (O(fibers) instead of O(1)).  Used by the
    stream-compatibility tests and the [hotpath] bench; not for
    production callers.  Stops at quiescence like {!run}. *)

(** {2 Partial-order reduction}

    An opt-in pruning mode.  {!run} and {!run_reference} are untouched:
    with POR off, seeded schedules stay bit-identical to before. *)

type por = {
  pending : int array;
      (** [pending.(tid)] — footprint of the op the fiber will execute
          when next resumed, or [0] when unknown.  Footprints are opaque
          ints ({!Runtime.Footprint} encodes them); the scheduler never
          inspects them beyond equality with [0].  The recorder writes
          the array in place; fibers with tids beyond its length count
          as unknown. *)
  step_fp : int array;
      (** A single shared cell: footprint of the op(s) the last step
          executed, [0] for a step that ran nothing instrumented.  The
          scheduler reads and clears it after every step.  An array
          rather than a closure pair: most steps execute nothing
          instrumented, and two indirect calls per step to learn that
          cost more than the rest of the pick loop. *)
  independent : int -> int -> bool;
      (** Whether two adjacent steps with these footprints commute. *)
  spin : int -> int -> bool;
      (** [spin executed pending] — the stepped fiber is busy-wait
          retrying the op it just executed (a failed CAS;
          {!Runtime.Footprint.spin_retry}).  {!run_por} parks such a
          fiber until a conflicting access wakes it, so a spinner cannot
          burn the step budget while the lock holder sleeps. *)
}
(** The scheduler's whole view of the runtime for pruning, int-encoded so
    [lib/sched] keeps its dependency footprint ([fmt obs] only). *)

type por_stats = { mutable pruned_picks : int; mutable forced_wakes : int }
(** [pruned_picks]: candidate picks suppressed by sleep sets, summed over
    steps; [forced_wakes]: times the whole runnable set was asleep and had
    to be woken to make progress. *)

val run_por : ?on_step:(int -> unit) -> por:por -> t -> outcome * por_stats
(** Like {!run} but with sleep-set pruning: after each step, runnable
    fibers whose pending op commutes with the executed footprint (and
    whose tid orders below the stepped fiber's — the canonical
    representative of the Mazurkiewicz class runs lower tids first among
    commuting ops) are put to sleep and excluded from the pick until a
    dependent access wakes them.  A fiber that busy-wait retries the op
    it just executed ([por.spin], a failed CAS) is itself parked until a
    conflicting access wakes it.  Ends at quiescence like {!run}: asleep
    fibers are live, so a parked lock holder keeps the run going.  Draws
    one [Rng.int] per step like
    {!run}, but over the awake subset, so the RNG stream {e differs} from
    [run] — POR sessions are seed-reproducible against [run_por] itself,
    not against [run].  The pruning is a heuristic over instrumented
    accesses only; POR property tests pin that found-bug sets match
    unpruned runs on the planted workloads.  Per-step maintenance is
    allocation-free (preallocated sleep bits / candidate scratch, a live
    sleeper count skips the candidate pass when nobody sleeps), and the
    candidate set is cached between sleep-state changes, so a step that
    executed nothing instrumented costs like a {!run} step. *)

val steps : t -> int
val fiber_count : t -> int

val completed : outcome -> bool
(** No hung and no failed fibers. *)

val pp_outcome : Format.formatter -> outcome -> unit
