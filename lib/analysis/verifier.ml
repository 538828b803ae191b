open Covirt_hw
open Covirt_pisces

type report = {
  enclaves_checked : int;
  leaves_checked : int;
  grants_checked : int;
  violations : Violation.t list;
}

let clean r = r.violations = []

(* Split [piece] by the actual owner of each sub-range, from the
   authoritative Phys_mem assignment snapshot; anything no assignment
   covers is Free DRAM (or an unregistered MMIO hole above the DRAM
   limit). *)
let by_actual_owner assignments ~mmio_base piece =
  let piece_set = Region.Set.of_list [ piece ] in
  let covered, owned =
    List.fold_left
      (fun (cov, acc) (region, owner) ->
        let inter =
          Region.Set.inter piece_set (Region.Set.of_list [ region ])
        in
        if Region.Set.is_empty inter then (cov, acc)
        else
          ( Region.Set.union cov inter,
            Region.Set.fold (fun acc r -> (r, owner) :: acc) acc inter ))
      (Region.Set.empty, [])
      assignments
  in
  Region.Set.fold
    (fun acc r ->
      let owner =
        if r.Region.base >= mmio_base then Owner.Device "unmapped-mmio"
        else Owner.Free
      in
      (r, owner) :: acc)
    owned
    (Region.Set.diff piece_set covered)

let leaf_violations ~assignments ~mmio_base ~id ~allowed leaves =
  (* [leaves] is in ascending GPA order (Ept.fold_leaves).  First the
     structural check — two live leaves covering the same GPA is radix
     corruption, unreachable through the public API but checked anyway
     — then the ownership cross-check of every unblessed sub-range. *)
  let violations = ref [] in
  let emit v = violations := v :: !violations in
  let prev = ref None in
  List.iter
    (fun (base, page_size, (_ : Ept.perms)) ->
      (match !prev with
      | Some (pbase, plimit) when base < plimit ->
          emit
            {
              Violation.owner = Owner.Enclave id;
              gpa = base;
              hpa = base;
              len = plimit - base;
              severity = Violation.Critical;
              kind = Violation.Overlapping_leaves { other = pbase };
              detail =
                Format.asprintf "leaf at %a extends past %a" Addr.pp pbase
                  Addr.pp base;
            }
      | _ -> ());
      let bytes = Addr.bytes_of_page_size page_size in
      let limit = base + bytes in
      (match !prev with
      | Some (_, plimit) when plimit > limit -> ()
      | _ -> prev := Some (base, limit));
      let leaf = Region.make ~base ~len:bytes in
      Region.Set.iter
        (fun offending ->
          List.iter
            (fun (r, actual) ->
              let mk severity kind detail =
                emit
                  {
                    Violation.owner = Owner.Enclave id;
                    gpa = r.Region.base;
                    hpa = r.Region.base;
                    len = r.Region.len;
                    severity;
                    kind;
                    detail;
                  }
              in
              match actual with
              | Owner.Free ->
                  mk Violation.Critical Violation.Unbacked_mapping
                    "EPT leaf maps unassigned DRAM"
              | Owner.Enclave j when j = id ->
                  mk Violation.Warning
                    (Violation.Cross_owner_mapping { actual })
                    "owned by this enclave but outside its believed \
                     accessible set"
              | Owner.Device device ->
                  mk Violation.Critical
                    (Violation.Writable_device_bar { device })
                    (Printf.sprintf
                       "BAR of %s mapped without delegation" device)
              | actual ->
                  mk Violation.Critical
                    (Violation.Cross_owner_mapping { actual })
                    (Format.asprintf
                       "EPT leaf maps %a memory outside any registered \
                        share" Owner.pp actual))
            (by_actual_owner assignments ~mmio_base offending))
        (Region.Set.diff (Region.Set.of_list [ leaf ]) allowed))
    leaves;
  List.rev !violations

let grant_violations machine ~live ~id whitelist =
  List.filter_map
    (fun (vector, dest) ->
      let valid =
        dest >= 0
        && dest < Machine.ncores machine
        &&
        match (Machine.cpu machine dest).Cpu.owner with
        | Owner.Enclave j -> live j
        | _ -> false
      in
      if valid then None
      else
        let detail =
          if dest < 0 || dest >= Machine.ncores machine then
            Printf.sprintf "destination core %d does not exist" dest
          else
            let cpu = Machine.cpu machine dest in
            Format.asprintf
              "core %d now belongs to %a; %d vector(s) still pending in \
               its IRR"
              dest Owner.pp cpu.Cpu.owner
              (List.length (Apic.pending_vectors cpu.Cpu.apic))
        in
        Some
          {
            Violation.owner = Owner.Enclave id;
            gpa = 0;
            hpa = 0;
            len = 0;
            severity = Violation.Warning;
            kind = Violation.Stale_grant { vector; dest };
            detail;
          })
    (Covirt.Whitelist.grants whitelist)

let run ?registry ctrl =
  let pisces = Covirt.Controller.pisces ctrl in
  let machine = Pisces.machine pisces in
  let mem = machine.Machine.mem in
  let assignments = Phys_mem.snapshot mem in
  let mmio_base = Phys_mem.mmio_base mem in
  let instances = Covirt.Controller.instances ctrl in
  let live id =
    Option.is_some (Covirt.Controller.instance_for ctrl ~enclave_id:id)
  in
  let shared_for id =
    match registry with
    | Some ns -> Covirt_xemem.Name_service.regions_for ns ~enclave:id
    | None -> Region.Set.empty
  in
  let leaves_checked = ref 0 in
  let grants_checked = ref 0 in
  let violations =
    List.concat_map
      (fun (i : Covirt.Controller.instance) ->
        let id = i.enclave.Enclave.id in
        let from_leaves =
          match i.ept_mgr with
          | None -> []
          | Some mgr ->
              let allowed =
                Region.Set.union
                  (Enclave.accessible i.enclave)
                  (shared_for id)
              in
              let leaves =
                Ept.fold_leaves
                  (Covirt.Ept_manager.ept mgr)
                  ~init:[]
                  ~f:(fun acc ~base ~page_size ~perms ->
                    (base, page_size, perms) :: acc)
                |> List.rev
              in
              leaves_checked := !leaves_checked + List.length leaves;
              leaf_violations ~assignments ~mmio_base ~id ~allowed leaves
        in
        grants_checked :=
          !grants_checked + List.length (Covirt.Whitelist.grants i.whitelist);
        from_leaves @ grant_violations machine ~live ~id i.whitelist)
      instances
  in
  {
    enclaves_checked = List.length instances;
    leaves_checked = !leaves_checked;
    grants_checked = !grants_checked;
    violations;
  }

let table r =
  let t =
    Covirt_sim.Table.create
      ~columns:[ "severity"; "kind"; "owner"; "gpa"; "len"; "detail" ]
  in
  List.iter
    (fun (v : Violation.t) ->
      Covirt_sim.Table.add_row t
        [
          Violation.severity_name v.severity;
          Violation.kind_name v.kind;
          Owner.to_string v.owner;
          Format.asprintf "%a" Addr.pp v.gpa;
          string_of_int v.len;
          v.detail;
        ])
    r.violations;
  t

let to_json r =
  Printf.sprintf
    {|{"enclaves_checked":%d,"leaves_checked":%d,"grants_checked":%d,"clean":%b,"violations":[%s]}|}
    r.enclaves_checked r.leaves_checked r.grants_checked (clean r)
    (String.concat "," (List.map Violation.to_json r.violations))
