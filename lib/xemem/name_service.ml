open Covirt_hw

type exporter = Host_export | Enclave_export of int

type segment = {
  segid : int;
  name : string;
  exporter : exporter;
  pages : Region.t list;
  mutable attachers : int list;
}

module Iset = Set.Make (Int)

type t = {
  by_name : (string, segment) Hashtbl.t;
  by_segid : (int, segment) Hashtbl.t;
  by_enclave : (int, Iset.t) Hashtbl.t;
      (* enclave id -> segids it exported or is attached to; an enclave
         with neither has no entry *)
  mutable next_segid : int;
}

let create () =
  {
    by_name = Hashtbl.create 16;
    by_segid = Hashtbl.create 16;
    by_enclave = Hashtbl.create 16;
    next_segid = 0x100;
  }

let segids_of t ~enclave =
  match Hashtbl.find_opt t.by_enclave enclave with
  | Some segids -> Iset.elements segids
  | None -> []

let index t ~enclave segid =
  let segids =
    Option.value ~default:Iset.empty (Hashtbl.find_opt t.by_enclave enclave)
  in
  Hashtbl.replace t.by_enclave enclave (Iset.add segid segids)

let unindex t ~enclave segid =
  match Hashtbl.find_opt t.by_enclave enclave with
  | None -> ()
  | Some segids ->
      let segids = Iset.remove segid segids in
      if Iset.is_empty segids then Hashtbl.remove t.by_enclave enclave
      else Hashtbl.replace t.by_enclave enclave segids

let aligned r =
  Addr.is_aligned r.Region.base ~size:Addr.page_size_4k
  && Addr.is_aligned r.Region.len ~size:Addr.page_size_4k

let register t ~name ~exporter ~pages =
  if Hashtbl.mem t.by_name name then
    Error (Printf.sprintf "segment %S already exported" name)
  else if pages = [] then Error "empty page list"
  else if not (List.for_all aligned pages) then
    Error "XEMEM shares whole 4K frames; pages must be frame-aligned"
  else begin
    let segid = t.next_segid in
    t.next_segid <- t.next_segid + 1;
    let segment = { segid; name; exporter; pages; attachers = [] } in
    Hashtbl.replace t.by_name name segment;
    Hashtbl.replace t.by_segid segid segment;
    (match exporter with
    | Enclave_export e -> index t ~enclave:e segid
    | Host_export -> ());
    Ok segment
  end

let lookup t ~name = Hashtbl.find_opt t.by_name name

let lookup_segid t ~segid = Hashtbl.find_opt t.by_segid segid

let regions_for t ~enclave =
  match Hashtbl.find_opt t.by_enclave enclave with
  | None -> Region.Set.empty
  | Some segids ->
      Region.Set.of_list
        (Iset.fold
           (fun segid acc -> (Hashtbl.find t.by_segid segid).pages @ acc)
           segids [])

let exported_by s enclave =
  match s.exporter with Enclave_export e -> e = enclave | Host_export -> false

let note_attach t ~segid ~enclave =
  match lookup_segid t ~segid with
  | Some s ->
      if not (List.mem enclave s.attachers) then begin
        s.attachers <- enclave :: s.attachers;
        index t ~enclave segid
      end
  | None -> ()

let note_detach t ~segid ~enclave =
  match lookup_segid t ~segid with
  | Some s ->
      s.attachers <- List.filter (( <> ) enclave) s.attachers;
      if not (exported_by s enclave) then unindex t ~enclave segid
  | None -> ()

let remove t ~segid =
  match lookup_segid t ~segid with
  | Some s ->
      Hashtbl.remove t.by_name s.name;
      Hashtbl.remove t.by_segid segid;
      (match s.exporter with
      | Enclave_export e -> unindex t ~enclave:e segid
      | Host_export -> ());
      List.iter (fun enclave -> unindex t ~enclave segid) s.attachers
  | None -> ()

let segments t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.by_segid []
  |> List.sort (fun a b -> compare a.segid b.segid)
