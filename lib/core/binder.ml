module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks

type t = Lopass | Hlpower of { alpha : float }

let name = function Hlpower _ -> "hlpower" | Lopass -> "lopass"
let all alpha = [ Hlpower { alpha }; Lopass ]
let names = List.map name (all 0.)

let of_name ~alpha n =
  match List.find_opt (fun b -> name b = n) (all alpha) with
  | Some b -> b
  | None -> failwith ("unknown binder: " ^ n)

let select ~alpha = function
  | "both" -> all alpha
  | n -> [ of_name ~alpha n ]

type design =
  | Bench of Benchmarks.profile * int
  | Graph of Cdfg.t
  | Bounded of Cdfg.t * (Cdfg.fu_class -> int)
  | Scheduled of Schedule.t

type prepared = { schedule : Schedule.t; regs : Reg_binding.t }

let prepare ?latency design =
  let schedule =
    match design with
    | Bench (p, variant) ->
        Schedule.list_schedule ?latency
          (Benchmarks.generate ~variant p)
          ~resources:(Benchmarks.resources p)
    | Graph cdfg ->
        let resources _ = max 1 (Cdfg.num_ops cdfg) in
        Schedule.list_schedule ?latency cdfg ~resources
    | Bounded (cdfg, resources) ->
        Schedule.list_schedule ?latency cdfg ~resources
    | Scheduled schedule -> schedule
  in
  { schedule; regs = Reg_binding.bind (Lifetime.analyze schedule) }

let density_bound schedule cls = max 1 (Schedule.max_density schedule cls)

type result = { binding : Binding.t; hlpower : Hlpower.result option }

let run ?state ?resources ~sa_table binder { schedule; regs } =
  let resources = Option.value resources ~default:(density_bound schedule) in
  match binder with
  | Lopass ->
      { binding = Lopass.bind ~regs ~resources schedule; hlpower = None }
  | Hlpower { alpha } ->
      let sa_table = Lazy.force sa_table in
      let params = Hlpower.calibrate ~alpha sa_table in
      let r = Hlpower.bind ?state ~params ~sa_table ~regs ~resources schedule in
      { binding = r.Hlpower.binding; hlpower = Some r }
