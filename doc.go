// Package sfcsched is a from-scratch Go implementation of "Scalable
// Multimedia Disk Scheduling" (Mokbel, Aref, Elbassioni, Kamel — ICDE
// 2004).
//
// The Cascaded-SFC scheduler collapses multi-QoS disk requests (several
// priority dimensions, a real-time deadline, a disk cylinder) into one
// scalar through three cascaded space-filling-curve stages, then drains a
// conditionally-preemptive priority queue. The module contains:
//
//   - internal/sfc — the space-filling-curve library (Sweep, Scan, C-Scan,
//     Peano, Gray, Hilbert, Spiral, Diagonal, Z-order) in arbitrary
//     dimensions;
//   - internal/core — the paper's contribution: the three-stage
//     Encapsulator and the SP/ER dispatcher;
//   - internal/disk — the Table 1 Quantum XP32150 model and RAID-5 layout;
//   - internal/sched — twelve baseline schedulers from the related work;
//   - internal/sim, internal/workload, internal/metrics — the evaluation
//     substrate;
//   - internal/experiments — one runner per paper table and figure;
//   - cmd/schedbench, cmd/schedsim, cmd/sfcviz, cmd/tracediff — tools;
//   - examples/ — four runnable scenarios.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// design decisions, EXPERIMENTS.md for paper-vs-measured results, and
// bench/README.md for the performance record.
package sfcsched
