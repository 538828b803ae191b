open Covirt_hw

module Imap = Map.Make (Int)

(* Destination core -> holder id -> number of (vector, core) grants. *)
type index = (int, int Imap.t) Hashtbl.t

type t = {
  enclave_cores : int list;
  mutable allowed : (int * int) list;
  mutable dropped : int;
  mutable linked : (index * int) option;
}

let create ~enclave_cores =
  { enclave_cores; allowed = []; dropped = 0; linked = None }

let index () : index = Hashtbl.create 16

let holders (index : index) ~dest =
  match Hashtbl.find_opt index dest with
  | None -> []
  | Some m -> Imap.fold (fun holder _ acc -> holder :: acc) m []

let bump t ~dest delta =
  match t.linked with
  | None -> ()
  | Some (index, holder) ->
      let m = Option.value ~default:Imap.empty (Hashtbl.find_opt index dest) in
      let n = delta + Option.value ~default:0 (Imap.find_opt holder m) in
      let m = if n > 0 then Imap.add holder n m else Imap.remove holder m in
      if Imap.is_empty m then Hashtbl.remove index dest
      else Hashtbl.replace index dest m

let link t index ~holder =
  t.linked <- Some (index, holder);
  List.iter (fun (_, dest) -> bump t ~dest 1) t.allowed

let unlink t =
  List.iter (fun (_, dest) -> bump t ~dest (-1)) t.allowed;
  t.linked <- None

let grant t ~vector ~dest =
  if not (List.mem (vector, dest) t.allowed) then begin
    t.allowed <- (vector, dest) :: t.allowed;
    bump t ~dest 1
  end

(* [dest] narrows the revocation to one (vector, dest) grant; without
   it every destination for the vector is dropped (full revocation of
   the vector). *)
let revoke ?dest t ~vector =
  let keep, gone =
    List.partition
      (fun (v, d) ->
        v <> vector || match dest with Some d' -> d <> d' | None -> false)
      t.allowed
  in
  t.allowed <- keep;
  List.iter (fun (_, dest) -> bump t ~dest (-1)) gone

let clear t =
  List.iter (fun (_, dest) -> bump t ~dest (-1)) t.allowed;
  t.allowed <- []

let permits t ~icr =
  let { Apic.dest; vector; kind } = icr in
  let internal = List.mem dest t.enclave_cores in
  match kind with
  | Apic.Fixed -> internal || List.mem (vector, dest) t.allowed
  | Apic.Nmi | Apic.Init | Apic.Startup ->
      (* Reset-class and NMI IPIs never leave the enclave. *)
      internal

let note_dropped t = t.dropped <- t.dropped + 1
let dropped t = t.dropped
let grants t = t.allowed
