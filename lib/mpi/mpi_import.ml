(* Local aliases for modules used across the MPI library. *)
module Sim = Pico_engine.Sim
module Ledger = Pico_engine.Ledger
module Stats = Pico_engine.Stats
module Addr = Pico_hw.Addr
module Endpoint = Pico_psm.Endpoint
module Hfi = Pico_nic.Hfi
module Fabric = Pico_nic.Fabric
module Costs = Pico_costs.Costs
