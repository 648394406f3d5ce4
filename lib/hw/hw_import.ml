(* Local aliases for the engine modules used across this library. *)
module Sim = Pico_engine.Sim
module Resource = Pico_engine.Resource
module Mailbox = Pico_engine.Mailbox
module Semaphore = Pico_engine.Semaphore
module Stats = Pico_engine.Stats
module Rng = Pico_engine.Rng
