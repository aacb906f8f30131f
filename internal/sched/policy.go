package sched

import (
	"fmt"
	"strings"
)

// Policy is one row of the baseline table: a name and a constructor that
// builds a fresh instance. est is the service-time estimator the
// feasibility-testing baselines consult; levels is the priority level
// count per dimension, into which multi-queue clamps a request's level.
type Policy struct {
	Name string
	New  func(est Estimator, levels int) Scheduler
}

// Policies is every one-dimensional baseline the paper's evaluation sets
// the Cascaded-SFC scheduler against, in the order schedsim -sched all
// prints them. It is the one list of served baselines: the commands, the
// experiments and the tests that cover every policy range over it.
var Policies = []Policy{
	{"fcfs", func(Estimator, int) Scheduler { return NewFCFS() }},
	{"sstf", func(Estimator, int) Scheduler { return NewSSTF() }},
	{"scan", func(Estimator, int) Scheduler { return NewSCAN() }},
	{"cscan", func(Estimator, int) Scheduler { return NewCSCAN() }},
	{"edf", func(Estimator, int) Scheduler { return NewEDF() }},
	{"scan-edf", func(Estimator, int) Scheduler { return NewSCANEDF(50_000) }},
	{"fd-scan", func(est Estimator, _ int) Scheduler { return NewFDSCAN(est) }},
	{"scan-rt", func(est Estimator, _ int) Scheduler { return NewSCANRT(est) }},
	{"ssedo", func(Estimator, int) Scheduler { return NewSSEDO() }},
	{"ssedv", func(Estimator, int) Scheduler { return NewSSEDV() }},
	{"multi-queue", func(_ Estimator, levels int) Scheduler { return NewMultiQueue(levels) }},
	{"kamel", func(est Estimator, _ int) Scheduler { return NewKamel(est) }},
}

// PolicyNames lists the names of Policies in table order.
func PolicyNames() (names []string) {
	for _, p := range Policies {
		names = append(names, p.Name)
	}
	return names
}

// NewPolicy builds the named baseline; an unknown name is an error that
// lists the known ones.
func NewPolicy(name string, est Estimator, levels int) (Scheduler, error) {
	for _, p := range Policies {
		if p.Name == name {
			return p.New(est, levels), nil
		}
	}
	return nil, fmt.Errorf("unknown scheduler %q (known: %s)", name, strings.Join(PolicyNames(), ", "))
}
