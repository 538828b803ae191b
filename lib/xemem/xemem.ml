open Covirt_hw
open Covirt_pisces

type t = {
  pisces : Pisces.t;
  registry : Name_service.t;
  mutable attaches : int;
}

let create pisces = { pisces; registry = Name_service.create (); attaches = 0 }
let pisces t = t.pisces
let registry t = t.registry

let owner_of_exporter = function
  | Name_service.Host_export -> Owner.Host
  | Name_service.Enclave_export id -> Owner.Enclave id

let export t ~exporter ~name ~pages =
  let machine = Pisces.machine t.pisces in
  let expected = owner_of_exporter exporter in
  (* Every frame of the segment must belong to the exporter in the
     host's authoritative ownership map. *)
  let owned r = Phys_mem.owns_range machine.Machine.mem ~owner:expected r in
  if not (List.for_all owned pages) then
    Error "exporter does not own all pages of the segment"
  else
    match Name_service.register t.registry ~name ~exporter ~pages with
    | Ok segment -> Ok segment.Name_service.segid
    | Error e -> Error e

let span pages =
  match pages with
  | [] -> invalid_arg "Xemem.span: empty"
  | first :: _ ->
      let total = List.fold_left (fun acc r -> acc + r.Region.len) 0 pages in
      (first.Region.base, total)

let attach t enclave ~name =
  match Name_service.lookup t.registry ~name with
  | None -> Error (Printf.sprintf "no segment named %S" name)
  | Some segment ->
      let machine = Pisces.machine t.pisces in
      let host = Pisces.host_cpu t.pisces in
      let caller = Machine.cpu machine (Enclave.bsp enclave) in
      let host_start = Cpu.rdtsc host in
      let result =
        Pisces.map_shared t.pisces enclave ~segid:segment.Name_service.segid
          ~pages:segment.Name_service.pages
      in
      (* The caller blocks while the host maps; its clock advances by
         the host-side processing time. *)
      Cpu.charge caller (Cpu.rdtsc host - host_start);
      (match result with
      | Ok () ->
          t.attaches <- t.attaches + 1;
          Name_service.note_attach t.registry ~segid:segment.Name_service.segid
            ~enclave:enclave.Enclave.id;
          Ok (span segment.Name_service.pages)
      | Error e -> Error e)

let attach_host t ~name =
  match Name_service.lookup t.registry ~name with
  | None -> Error (Printf.sprintf "no segment named %S" name)
  | Some segment ->
      (* The host's address space is unrestricted; attaching is pure
         bookkeeping plus the page-list walk. *)
      let host = Pisces.host_cpu t.pisces in
      let machine = Pisces.machine t.pisces in
      let frames =
        List.fold_left
          (fun acc r -> acc + (r.Region.len / Addr.page_size_4k))
          0 segment.Name_service.pages
      in
      Cpu.charge host
        (frames * machine.Machine.model.Cost_model.page_list_per_page);
      t.attaches <- t.attaches + 1;
      Ok (span segment.Name_service.pages)

let detach t enclave ~name =
  match Name_service.lookup t.registry ~name with
  | None -> Error (Printf.sprintf "no segment named %S" name)
  | Some segment ->
      let result =
        Pisces.unmap_shared t.pisces enclave
          ~segid:segment.Name_service.segid ~pages:segment.Name_service.pages
          ()
      in
      (match result with
      | Ok () ->
          Name_service.note_detach t.registry
            ~segid:segment.Name_service.segid ~enclave:enclave.Enclave.id;
          Ok ()
      | Error e -> Error e)

let reclaim_export t ~name ?(simulate_cleanup_bug = false) () =
  match Name_service.lookup t.registry ~name with
  | None -> Error (Printf.sprintf "no segment named %S" name)
  | Some segment ->
      let detach_one enclave_id =
        match Pisces.find_enclave t.pisces enclave_id with
        | None -> Ok ()
        | Some enclave ->
            Pisces.unmap_shared t.pisces enclave
              ~segid:segment.Name_service.segid
              ~pages:segment.Name_service.pages
              ~skip_enclave_notify:simulate_cleanup_bug ()
      in
      let rec all = function
        | [] -> Ok ()
        | e :: rest -> (
            match detach_one e with Ok () -> all rest | Error _ as err -> err)
      in
      (match all segment.Name_service.attachers with
      | Error e -> Error e
      | Ok () ->
          Name_service.remove t.registry ~segid:segment.Name_service.segid;
          Ok ())

let attach_count t = t.attaches
