(* The instrumented memory operations — PMRace's hooked functions.

   Every operation (a) runs the policy's [before] hook (where the PM-aware
   scheduler injects cond_wait), (b) performs the access with checker
   bookkeeping, (c) notifies listeners, and (d) runs the policy's [after]
   hook (where cond_signal lives).  Addresses are tainted values so that
   layout inconsistencies — stores whose *address* derives from
   non-persisted data — are caught (§4.3, data-flow class 2). *)

open Env

exception Stuck of string
(* Raised by spin locks that cannot make progress outside a scheduled
   execution (e.g. an unreleased persistent lock hit during recovery). *)

let word_of addr = Tval.to_int addr

let maybe_evict env =
  if env.evict_prob > 0. && Sched.Rng.float env.evict_rng < env.evict_prob then begin
    let lines = Pmem.Pool.size env.pool / Pmem.Cacheline.words_per_line in
    let line = Sched.Rng.int env.evict_rng lines in
    match Pmem.Pool.evict_line env.pool line with
    | [] -> ()
    | persisted -> Checkers.on_persisted env.checkers env.pool persisted
  end

let load ctx ~instr addr =
  let env = ctx.env in
  let a = word_of addr in
  env.policy.before ctx P_load instr a;
  let dirty = Pmem.Pool.is_dirty env.pool a in
  let raw = Pmem.Pool.load env.pool a in
  let taint = Taint.union (Tval.taint addr) (Env.mem_taint env a) in
  let taint =
    match Checkers.on_load env.checkers env.pool ~tid:ctx.tid ~instr ~addr:a with
    | Some cand -> Taint.add cand.Candidates.id taint
    | None -> taint
  in
  Env.emit env (Ev_load { instr; tid = ctx.tid; addr = a; dirty });
  env.policy.after ctx P_load instr a;
  Tval.make raw taint

let store_common ctx ~instr ~kind addr value =
  let env = ctx.env in
  let a = word_of addr in
  env.policy.before ctx kind instr a;
  Checkers.on_store env.checkers env.pool ~tid:ctx.tid ~instr ~addr:a
    ~value_taint:(Tval.taint value) ~addr_taint:(Tval.taint addr);
  (match kind with
  | P_store -> Pmem.Pool.store env.pool ~tid:ctx.tid ~instr:(Instr.to_int instr) a (Tval.v value)
  | P_movnt -> Pmem.Pool.movnt env.pool ~tid:ctx.tid ~instr:(Instr.to_int instr) a (Tval.v value)
  | P_load | P_clwb | P_fence | P_cas -> assert false);
  Env.note_pm_write env;
  Env.set_mem_taint env a (Tval.taint value);
  (* Under eADR the store is already durable: run the persistence hook so
     sync-variable updates are still detected (§6.6: PM Synchronization
     Inconsistency survives eADR). *)
  if Pmem.Pool.is_eadr env.pool then Checkers.on_persisted env.checkers env.pool [ a ];
  (match kind with
  | P_store -> Env.emit env (Ev_store { instr; tid = ctx.tid; addr = a })
  | _ -> Env.emit env (Ev_movnt { instr; tid = ctx.tid; addr = a }));
  env.policy.after ctx kind instr a;
  maybe_evict env

let store ctx ~instr addr value = store_common ctx ~instr ~kind:P_store addr value
let movnt ctx ~instr addr value = store_common ctx ~instr ~kind:P_movnt addr value

let clwb ctx ~instr addr =
  let env = ctx.env in
  let a = word_of addr in
  env.policy.before ctx P_clwb instr a;
  let dirty_words =
    (* Allocation-free line walk: this runs on every instrumented CLWB. *)
    Pmem.Cacheline.fold_line
      (fun n w -> if Pmem.Pool.is_dirty env.pool w then n + 1 else n)
      0 a
  in
  Pmem.Pool.clwb env.pool a;
  Env.emit env (Ev_clwb { instr; tid = ctx.tid; addr = a; dirty_words });
  env.policy.after ctx P_clwb instr a

let sfence ctx ~instr =
  let env = ctx.env in
  env.policy.before ctx P_fence instr (-1);
  let persisted = Pmem.Pool.sfence env.pool in
  Checkers.on_persisted env.checkers env.pool persisted;
  Env.emit env (Ev_fence { instr; tid = ctx.tid; persisted });
  env.policy.after ctx P_fence instr (-1)

let persist ctx ~instr addr =
  clwb ctx ~instr addr;
  sfence ctx ~instr

let persist_range ctx ~instr addr ~words =
  let base = word_of addr in
  let line = Pmem.Cacheline.words_per_line in
  let rec flush w =
    if w < base + words then begin
      clwb ctx ~instr (Tval.of_int w);
      flush (w + line)
    end
  in
  flush base;
  sfence ctx ~instr

(* Compare-and-swap: an atomic read-modify-write, a single preemption
   point.  The read side performs candidate detection like [load].
   [nt:true] publishes the new value non-temporally (never PM-dirty),
   modelling a lock-free CAS immediately followed by a flush of its own
   line, as PMDK's internals do for allocator metadata. *)
let cas ?(nt = false) ctx ~instr addr ~expect ~value =
  let env = ctx.env in
  let a = word_of addr in
  env.policy.before ctx P_cas instr a;
  let dirty = Pmem.Pool.is_dirty env.pool a in
  let raw = Pmem.Pool.load env.pool a in
  ignore (Checkers.on_load env.checkers env.pool ~tid:ctx.tid ~instr ~addr:a);
  Env.emit env (Ev_load { instr; tid = ctx.tid; addr = a; dirty });
  let ok = Int64.equal raw (Tval.v expect) in
  if ok then begin
    Checkers.on_store env.checkers env.pool ~tid:ctx.tid ~instr ~addr:a
      ~value_taint:(Tval.taint value) ~addr_taint:(Tval.taint addr);
    if nt then Pmem.Pool.movnt env.pool ~tid:ctx.tid ~instr:(Instr.to_int instr) a (Tval.v value)
    else Pmem.Pool.store env.pool ~tid:ctx.tid ~instr:(Instr.to_int instr) a (Tval.v value);
    Env.note_pm_write env;
    Env.set_mem_taint env a (Tval.taint value);
    if Pmem.Pool.is_eadr env.pool then Checkers.on_persisted env.checkers env.pool [ a ];
    Env.emit env (Ev_store { instr; tid = ctx.tid; addr = a })
  end;
  env.policy.after ctx P_cas instr a;
  if ok then maybe_evict env;
  ok

let branch ctx ~instr =
  Env.emit ctx.env (Ev_branch { instr; tid = ctx.tid })

let external_effect ctx ~instr value =
  Checkers.on_external_effect ctx.env.checkers ctx.env.pool ~tid:ctx.tid ~instr
    ~taint:(Tval.taint value)

(* Spin locks over a PM word: 0 = free, 1 = held.  [persist:true] flushes
   the lock word after acquisition/release — that is exactly the persistent
   lock pattern behind the paper's PM Synchronization Inconsistency bugs.

   Each failed attempt stamps the fiber with the write generation read
   before the attempt (see [Env.stamp_spin]), the evidence the scheduler
   uses to end a run whose every live fiber spins on a held lock. *)
let spin_limit = 100_000

let try_lock ctx ~instr addr = cas ctx ~instr addr ~expect:Tval.zero ~value:Tval.one

let spin_lock ?(persist_lock = false) ctx ~instr addr =
  let rec spin n =
    if n > spin_limit then raise (Stuck (Printf.sprintf "spin_lock at %s" (Instr.name instr)));
    let gen = Env.pm_gen ctx.env in
    if try_lock ctx ~instr addr then Env.clear_spin ctx
    else begin
      Env.stamp_spin ctx ~gen;
      spin (n + 1)
    end
  in
  spin 0;
  if persist_lock then persist ctx ~instr addr

let unlock ?(persist_lock = false) ctx ~instr addr =
  store ctx ~instr addr Tval.zero;
  if persist_lock then persist ctx ~instr addr
