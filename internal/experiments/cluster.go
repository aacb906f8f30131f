package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/cluster"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// The fleet-level parameters: a 4-node cluster of single-disk arrays
// behind every (router, admission) pairing, swept over offered load under
// a skewed multi-tenant workload. The question is the paper's scalability
// story one level up — when tenants are Zipf-skewed across the block
// space, which routing policy keeps the stringent class inside its SLO,
// and what does admission control buy the survivors? Skew 1.3 over 8
// tenants concentrates roughly half the traffic on two tenants' zones,
// which is what separates load-blind from load-aware routing; class =
// tenant mod clusterClasses.
const (
	clusterNodes        = 4
	clusterDisksPerNode = 1
	clusterTenants      = 8
	clusterTenantSkew   = 1.3
	clusterClasses      = 3
	// The per-class token bucket of the "token" admission series: tokens/s
	// and burst size.
	clusterAdmitRate  = 150
	clusterAdmitBurst = 30
)

// clusterInterarrivals are the mean arrival gaps swept, µs (the x-axis
// renders as offered load in req/s across the whole cluster), from
// comfortable load into saturation.
var clusterInterarrivals = []int64{8_000, 5_000, 3_500, 2_500, 2_000}

// clusterPolicies is the full routing × admission cross product swept per
// load point; series are named router+admission.
var clusterPolicies = []struct{ router, admit string }{
	{"rr", "always"},
	{"least", "always"},
	{"affinity", "always"},
	{"rr", "token"},
	{"least", "token"},
	{"affinity", "token"},
}

// clusterSweep sweeps offered load for every (router, admission) pairing
// and reports three views of the same runs: the stringent class-0 loss
// rate, class-0 mean completion latency of served requests, and the Jain
// fairness index over per-tenant goodput. Deterministic: the same seed
// renders the same CSV for any worker count.
func clusterSweep(_ io.Writer, p Params) ([]*Result, error) {
	p = p.sized(4000)
	model, err := xp32150()
	if err != nil {
		return nil, err
	}
	x := loadAxis(clusterInterarrivals)
	notes := []string{
		fmt.Sprintf("%d nodes × %d disks, SCAN-EDF members; %d requests per point, %d tenants (zipf %.1f, zoned), %d classes",
			clusterNodes, clusterDisksPerNode, p.Requests, clusterTenants, clusterTenantSkew, clusterClasses),
		fmt.Sprintf("token admission: per-class bucket, %d tokens/s, burst %d; always = no admission control",
			clusterAdmitRate, clusterAdmitBurst),
		"class 0 is the most stringent SLO class; loss = admission + dispatch drops over arrivals",
	}
	loss := &Result{
		ID:     "cluster",
		Title:  "Class-0 SLO loss vs offered load, by routing and admission policy",
		XLabel: "load (req/s)",
		YLabel: "class-0 arrivals lost (%)",
		X:      x,
		Notes:  notes,
	}
	lat := &Result{
		ID:     "cluster",
		Title:  "Class-0 mean completion latency vs offered load",
		XLabel: "load (req/s)",
		YLabel: "class-0 mean latency of served requests (ms)",
		X:      x,
	}
	jain := &Result{
		ID:     "cluster",
		Title:  "Jain fairness over per-tenant goodput vs offered load",
		XLabel: "load (req/s)",
		YLabel: "Jain index (1 = perfectly fair)",
		X:      x,
	}

	names := make([]string, len(clusterPolicies))
	for i, pol := range clusterPolicies {
		names[i] = pol.router + "+" + pol.admit
	}
	return []*Result{loss, lat, jain}, sweep(p.Workers, names, func(x, s int) ([]float64, error) {
		pol := clusterPolicies[s]
		ccfg := cluster.Config{
			Nodes: clusterNodes, DisksPerNode: clusterDisksPerNode, Disk: model,
			NewScheduler: func(int, int) (sched.Scheduler, error) { return sched.NewPolicy("scan-edf", nil, 0) },
			DropLate:     true, Classes: clusterClasses,
		}
		// Routers and buckets are stateful: built fresh per cell so cells
		// share nothing.
		var err error
		if ccfg.Router, err = cluster.NewRouter(pol.router); err != nil {
			return nil, err
		}
		if ccfg.Admission, err = cluster.NewAdmitter(pol.admit, clusterClasses, clusterAdmitRate, clusterAdmitBurst); err != nil {
			return nil, err
		}
		trace, err := workload.Open{
			Seed: p.Seed, Count: p.Requests, MeanInterarrival: clusterInterarrivals[x],
			Dims: 1, Levels: 4,
			DeadlineMin: 50_000, DeadlineMax: 800_000,
			Cylinders: ccfg.MaxBlocks(), Size: 64 << 10,
			Tenants: clusterTenants, TenantSkew: clusterTenantSkew,
			Classes: clusterClasses, TenantZones: true,
		}.Generate()
		if err != nil {
			return nil, err
		}
		res, err := cluster.Run(ccfg, trace)
		if err != nil {
			return nil, err
		}
		c0 := res.PerClass[0]
		var latMs float64
		if c0.Served > 0 {
			latMs = float64(c0.LatencySum) / float64(c0.Served) / 1000
		}
		return []float64{100 * c0.LossRate(), latMs, res.Jain()}, nil
	}, loss, lat, jain)
}
