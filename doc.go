// Package decongestant is a from-scratch Go reproduction of
// "Decongestant: A Breath of Fresh Air for MongoDB Through
// Freshness-aware Reads" (Huang, Cahill, Fekete, Röhm; EDBT 2021).
//
// The repository contains, under internal/:
//
//   - sim: a deterministic discrete-event kernel (plus a real-time
//     implementation of the same interfaces),
//   - btree, storage, oplog: the document-store substrate,
//   - cluster: a MongoDB-like replica set with oplog replication,
//     serverStatus, checkpoints and flow control,
//   - driver: a MongoDB-like client with Read Preference semantics,
//   - core: the paper's contribution — the Read Balancer and Router,
//   - workload: YCSB, document-model TPC-C, and the S staleness prober,
//   - experiments: runners that regenerate every table and figure,
//   - wire: a TCP protocol exposing a replica set to remote clients.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record. cmd/decongestant-bench
// regenerates each table and figure; -stretch below 1 shortens them:
//
//	go run ./cmd/decongestant-bench -figure all -stretch 0.1
package decongestant
