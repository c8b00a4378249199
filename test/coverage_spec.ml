(* Executable specifications of the per-event coverage handlers: the
   Hashtbl-keyed alias tracker and shared-access queue that the flat
   per-word structures in [Pmrace.Alias_cov] and [Pmrace.Shared_queue]
   replaced.  Deliberately naive — one hash lookup per event, a fresh
   record per access — and kept only as oracles for the property tests
   in [Test_coverage].  Do not optimise these. *)

module Env = Runtime.Env
module Instr = Runtime.Instr

(* PM alias pair coverage: a bitmap over hashed back-to-back cross-thread
   access pairs, plus the achieved (write site, read site) pairs of
   cross-thread dirty reads.  The hash is the one the bitmap has always
   used, so the flat tracker's bitmap must match bit for bit. *)
module Alias = struct
  type access = { a_instr : int; a_dirty : bool; a_tid : int }

  type t = {
    bits : Bytes.t;
    size : int;
    mutable count : int;
    achieved : (int * int, unit) Hashtbl.t;
    last : (int, access) Hashtbl.t;
    last_writer : (int, access) Hashtbl.t;
  }

  let create ?(size_log = 16) () =
    let size = 1 lsl size_log in
    {
      bits = Bytes.make (size / 8) '\000';
      size;
      count = 0;
      achieved = Hashtbl.create 64;
      last = Hashtbl.create 256;
      last_writer = Hashtbl.create 256;
    }

  let mix h x =
    let h = h lxor (x * 0x9E3779B1) in
    let h = (h lxor (h lsr 15)) * 0x85EBCA77 in
    h lxor (h lsr 13)

  let hash_pair prev cur =
    let h = 0x27220A95 in
    let h = mix h prev.a_instr in
    let h = mix h (if prev.a_dirty then 3 else 5) in
    let h = mix h prev.a_tid in
    let h = mix h cur.a_instr in
    let h = mix h (if cur.a_dirty then 3 else 5) in
    mix h cur.a_tid

  let observe t ~prev ~cur =
    if prev.a_tid <> cur.a_tid then begin
      let idx = abs (hash_pair prev cur) mod t.size in
      let byte = idx / 8 and mask = 1 lsl (idx mod 8) in
      let old = Char.code (Bytes.get t.bits byte) in
      if old land mask = 0 then begin
        Bytes.set t.bits byte (Char.chr (old lor mask));
        t.count <- t.count + 1
      end
    end

  let handler t ev =
    let on_access addr cur =
      (match Hashtbl.find_opt t.last addr with Some prev -> observe t ~prev ~cur | None -> ());
      Hashtbl.replace t.last addr cur
    in
    match ev with
    | Env.Ev_load { instr; tid; addr; dirty } ->
        let cur = { a_instr = Instr.to_int instr; a_dirty = dirty; a_tid = tid } in
        (if dirty then
           match Hashtbl.find_opt t.last_writer addr with
           | Some w when w.a_tid <> tid -> Hashtbl.replace t.achieved (w.a_instr, cur.a_instr) ()
           | Some _ | None -> ());
        on_access addr cur
    | Env.Ev_store { instr; tid; addr } | Env.Ev_movnt { instr; tid; addr } ->
        let cur = { a_instr = Instr.to_int instr; a_dirty = true; a_tid = tid } in
        Hashtbl.replace t.last_writer addr cur;
        on_access addr cur
    | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ()

  (* A delta reset: the map and the per-execution tracker both start over. *)
  let reset t =
    Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
    t.count <- 0;
    Hashtbl.reset t.achieved;
    Hashtbl.reset t.last;
    Hashtbl.reset t.last_writer

  let count t = t.count

  let bits_hex t =
    String.concat ""
      (List.init (Bytes.length t.bits) (fun i ->
           Printf.sprintf "%02x" (Char.code (Bytes.get t.bits i))))

  let site_pairs t =
    Hashtbl.fold (fun p () acc -> p :: acc) t.achieved [] |> List.sort compare
end

(* The shared-access queue: per-address instruction and thread sets and
   hit counts, found by one [Hashtbl.find_opt] per event. *)
module Queue = struct
  module Iset = Set.Make (Instr)
  module Tset = Set.Make (Int)

  type record = {
    mutable load_instrs : Iset.t;
    mutable store_instrs : Iset.t;
    mutable load_tids : Tset.t;
    mutable store_tids : Tset.t;
    mutable hits : int;
  }

  type t = { tbl : (int, record) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 128 }

  let record_of t addr =
    match Hashtbl.find_opt t.tbl addr with
    | Some r -> r
    | None ->
        let r =
          {
            load_instrs = Iset.empty;
            store_instrs = Iset.empty;
            load_tids = Tset.empty;
            store_tids = Tset.empty;
            hits = 0;
          }
        in
        Hashtbl.add t.tbl addr r;
        r

  let handler t = function
    | Env.Ev_load { instr; tid; addr; _ } ->
        let r = record_of t addr in
        r.load_instrs <- Iset.add instr r.load_instrs;
        r.load_tids <- Tset.add tid r.load_tids;
        r.hits <- r.hits + 1
    | Env.Ev_store { instr; tid; addr } | Env.Ev_movnt { instr; tid; addr } ->
        let r = record_of t addr in
        r.store_instrs <- Iset.add instr r.store_instrs;
        r.store_tids <- Tset.add tid r.store_tids;
        r.hits <- r.hits + 1
    | Env.Ev_clwb _ | Env.Ev_fence _ | Env.Ev_branch _ -> ()

  let merge_into ~src dst =
    Hashtbl.iter
      (fun addr s ->
        let d = record_of dst addr in
        d.load_instrs <- Iset.union d.load_instrs s.load_instrs;
        d.store_instrs <- Iset.union d.store_instrs s.store_instrs;
        d.load_tids <- Tset.union d.load_tids s.load_tids;
        d.store_tids <- Tset.union d.store_tids s.store_tids;
        d.hits <- d.hits + s.hits)
      src.tbl

  let clear t = Hashtbl.reset t.tbl
  let tracked_addresses t = Hashtbl.length t.tbl

  (* Shared: loaded and stored, by more than one thread; hottest first. *)
  let entries t =
    Hashtbl.fold
      (fun addr r acc ->
        if
          (not (Iset.is_empty r.load_instrs))
          && (not (Iset.is_empty r.store_instrs))
          && Tset.cardinal (Tset.union r.load_tids r.store_tids) > 1
        then
          {
            Pmrace.Shared_queue.addr;
            loads = Iset.elements r.load_instrs;
            stores = Iset.elements r.store_instrs;
            hits = r.hits;
          }
          :: acc
        else acc)
      t.tbl []
    |> List.sort (fun (a : Pmrace.Shared_queue.entry) b ->
           match compare b.hits a.hits with 0 -> compare a.addr b.addr | c -> c)

  let to_json t =
    let module J = Obs.Json in
    let names s = J.List (List.map (fun i -> J.String (Instr.name i)) (Iset.elements s)) in
    let tids s = J.List (List.map (fun i -> J.Int i) (Tset.elements s)) in
    J.List
      (Hashtbl.fold (fun addr r acc -> (addr, r) :: acc) t.tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (addr, r) ->
             J.Obj
               [
                 ("addr", J.Int addr);
                 ("loads", names r.load_instrs);
                 ("stores", names r.store_instrs);
                 ("load_tids", tids r.load_tids);
                 ("store_tids", tids r.store_tids);
                 ("hits", J.Int r.hits);
               ]))
end
