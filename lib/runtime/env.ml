(* Execution environment: one per fuzz campaign.

   Binds together the PM pool, the checkers, the volatile DRAM store, the
   shadow taint memory, the interleaving policy, and the event listeners
   that feed coverage metrics and the shared-access queue. *)

type point_kind = P_load | P_store | P_movnt | P_clwb | P_fence | P_cas

type event =
  | Ev_load of { instr : Instr.t; tid : int; addr : int; dirty : bool }
  | Ev_store of { instr : Instr.t; tid : int; addr : int }
  | Ev_movnt of { instr : Instr.t; tid : int; addr : int }
  | Ev_clwb of { instr : Instr.t; tid : int; addr : int; dirty_words : int }
  | Ev_fence of { instr : Instr.t; tid : int; persisted : int list }
  | Ev_branch of { instr : Instr.t; tid : int }

(* Shadow taint, one slot per word: a slot is live iff its stamp equals
   [gen], so clearing the whole shadow is one bump.  The arrays grow in
   512-word steps to cover the highest word ever tainted; words past their
   end are untainted. *)
type shadow = { mutable taint : Taint.t array; mutable stamp : int array; mutable gen : int }

(* The spin-stamp channel the scheduler reads to end a campaign at
   quiescence.  Cell 0 is the PM write generation, bumped by every
   store, movnt and successful CAS; cell [1 + tid] is [g + 1] after
   fiber [tid] failed a spin-lock CAS that read the pool at generation
   [g], and [0] once it holds the lock.  A stamp equal to the
   generation + 1 therefore proves the fiber's next attempt fails
   too.  The array only grows in [spin_channel], between runs, so the
   scheduler's reference stays the live one for a whole run. *)
type spin = int array

type t = {
  pool : Pmem.Pool.t;
  mutable checkers : Checkers.t;
  dram : Dram.t;
  shadow : shadow;
  mutable spin : spin;
  mutable policy : policy;
  mutable listeners : (event -> unit) list;
  (* Pre-bound listeners: installed once per worker (not rebuilt per
     campaign) and dispatched before the transient [listeners].  They
     survive [reset]. *)
  mutable bound : (event -> unit) array;
  evict_seed : int;
  mutable evict_rng : Sched.Rng.t;
  mutable evict_prob : float;
}

and ctx = { env : t; tid : int }

(* Hooks take the point unboxed — kind, site, word ([-1] for fences) —
   so an instrumented op allocates nothing to describe itself. *)
and policy = {
  before : ctx -> point_kind -> Instr.t -> int -> unit;
  after : ctx -> point_kind -> Instr.t -> int -> unit;
}

let null_policy = { before = (fun _ _ _ _ -> ()); after = (fun _ _ _ _ -> ()) }

(* The plain interleaving policy: every instrumented operation is a
   preemption point. *)
let preempt_policy =
  { before = (fun _ _ _ _ -> Sched.Scheduler.yield ()); after = (fun _ _ _ _ -> ()) }

let of_pool ~capture_images ~evict_prob ~evict_seed pool =
  {
    pool;
    checkers = Checkers.create ~capture_images ();
    dram = Dram.create ();
    shadow = { taint = [||]; stamp = [||]; gen = 1 };
    spin = [| 0 |];
    policy = null_policy;
    listeners = [];
    bound = [||];
    evict_seed;
    evict_rng = Sched.Rng.create evict_seed;
    evict_prob;
  }

let create ?(capture_images = true) ?(evict_prob = 0.) ?(evict_seed = 7) ?(eadr = false)
    ~pool_words () =
  of_pool ~capture_images ~evict_prob ~evict_seed (Pmem.Pool.create ~eadr ~words:pool_words ())

(* Boot an environment from a crash image: the post-failure world.  DRAM
   state, shadow taint and checker state all start fresh. *)
let of_image ?(capture_images = false) (image : Pmem.Pool.image) =
  of_pool ~capture_images ~evict_prob:0. ~evict_seed:7 (Pmem.Pool.of_image image)

let ctx t ~tid = { env = t; tid }
let set_policy t p = t.policy <- p
let add_listener t f = t.listeners <- f :: t.listeners
let install_bound t fs = t.bound <- fs

let emit t ev =
  let bound = t.bound in
  for i = 0 to Array.length bound - 1 do
    bound.(i) ev
  done;
  List.iter (fun f -> f ev) t.listeners

let mem_taint t addr =
  let s = t.shadow in
  if addr < Array.length s.stamp && s.stamp.(addr) = s.gen then s.taint.(addr) else Taint.empty

let grow_shadow s addr =
  let n = (addr / 512 + 1) * 512 in
  let taint = Array.make n Taint.empty and stamp = Array.make n 0 in
  Array.blit s.taint 0 taint 0 (Array.length s.taint);
  Array.blit s.stamp 0 stamp 0 (Array.length s.stamp);
  s.taint <- taint;
  s.stamp <- stamp

(* Clearing a slot only retires its stamp, so the common untainted store
   never writes the boxed array. *)
let set_mem_taint t addr taint =
  if addr < 0 then invalid_arg "Env.set_mem_taint: negative address";
  let s = t.shadow in
  if Taint.is_empty taint then begin
    if addr < Array.length s.stamp then s.stamp.(addr) <- 0
  end
  else begin
    if addr >= Array.length s.stamp then grow_shadow s addr;
    s.taint.(addr) <- taint;
    s.stamp.(addr) <- s.gen
  end

let pm_gen t = t.spin.(0)

let note_pm_write t =
  let c = t.spin in
  c.(0) <- c.(0) + 1

(* Stamps of tids outside the channel (the [-1] setup context, or fibers
   of a run that did not ask for one) are dropped: an unstamped fiber
   only ever keeps a run going. *)
let set_spin ctx v =
  let c = ctx.env.spin and k = ctx.tid + 1 in
  if k > 0 && k < Array.length c then c.(k) <- v

let stamp_spin ctx ~gen = set_spin ctx (gen + 1)
let clear_spin ctx = set_spin ctx 0

(* Bumping the generation retires every stamp a previous run left: a
   stamp is at most the old generation + 1, never the new one + 1. *)
let spin_channel t ~fibers =
  if Array.length t.spin < fibers + 1 then begin
    let c = Array.make (fibers + 1) 0 in
    c.(0) <- t.spin.(0);
    t.spin <- c
  end;
  note_pm_write t;
  t.spin

let clear_taint t = t.shadow.gen <- t.shadow.gen + 1

let annotate_sync t ~name ~addr ~len ~init = Checkers.annotate_sync t.checkers ~name ~addr ~len ~init

(* Discard checker state accumulated so far (e.g. during pool
   initialisation) while keeping sync-variable annotations.  Campaign
   results must only reflect the fuzzed execution. *)
let reset_checkers ?(capture_images = true) t =
  let vars = Checkers.sync_vars t.checkers in
  t.checkers <- Checkers.create ~capture_images ();
  List.iter
    (fun v ->
      Checkers.annotate_sync t.checkers ~name:v.Checkers.sv_name ~addr:v.Checkers.sv_addr
        ~len:v.Checkers.sv_len ~init:v.Checkers.sv_init)
    vars;
  clear_taint t

(* Return a reused environment to its just-created state — everything a
   fresh [create] would give, except the pool (reset separately via
   [Pmem.Pool.reset_to_snapshot]) and the pre-bound listener array, which
   is installed once per worker and deliberately survives.  Sync-variable
   annotations do NOT survive: the caller re-annotates, exactly as it would
   on a fresh environment. *)
let reset ?(capture_images = true) t =
  t.checkers <- Checkers.create ~capture_images ();
  Dram.clear t.dram;
  clear_taint t;
  t.policy <- null_policy;
  t.listeners <- [];
  t.evict_rng <- Sched.Rng.create t.evict_seed
