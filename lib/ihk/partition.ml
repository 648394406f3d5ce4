open Ihk_import

type t = {
  node : Node.t;
  lwk_cpus : Cpu.t list;
  linux_cpus : Cpu.t list;
  lwk_mem_bytes : int;
}

let cores_of cpus =
  List.fold_left
    (fun acc (c : Cpu.t) ->
      if List.mem c.Cpu.core_id acc then acc else c.Cpu.core_id :: acc)
    [] cpus
  |> List.length

let reserve node ~lwk_cores ~lwk_mem_bytes =
  let cpus = node.Node.cpus in
  let total_cores =
    Array.fold_left (fun acc (c : Cpu.t) -> max acc (c.Cpu.core_id + 1)) 0 cpus
  in
  if lwk_cores <= 0 || lwk_cores >= total_cores then
    invalid_arg
      (Printf.sprintf
         "Partition.reserve: lwk_cores %d out of range (node has %d cores)"
         lwk_cores total_cores);
  (* Give the LWK the upper core range; Linux keeps the first cores where
     system daemons traditionally run. *)
  let threshold = total_cores - lwk_cores in
  let lwk = ref [] and linux = ref [] in
  Array.iter
    (fun (c : Cpu.t) ->
      if c.Cpu.core_id >= threshold then begin
        c.Cpu.owner <- Cpu.Lwk;
        lwk := c :: !lwk
      end
      else begin
        c.Cpu.owner <- Cpu.Linux;
        linux := c :: !linux
      end)
    cpus;
  { node; lwk_cpus = List.rev !lwk; linux_cpus = List.rev !linux;
    lwk_mem_bytes }

let release t =
  List.iter (fun (c : Cpu.t) -> c.Cpu.owner <- Cpu.Linux) t.lwk_cpus

let lwk_cpu_count t = List.length t.lwk_cpus

let lwk_core_count t = cores_of t.lwk_cpus

let linux_core_count t = cores_of t.linux_cpus
