package experiments

import (
	"fmt"

	"sfcsched/internal/cluster"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// ClusterConfig drives the fleet-level experiment: a cluster of identical
// arrays behind every (router, admission) pairing, swept over offered
// load under a skewed multi-tenant workload. The question is the paper's
// scalability story one level up — when tenants are Zipf-skewed across
// the block space, which routing policy keeps the stringent class inside
// its SLO, and what does admission control buy the survivors?
type ClusterConfig struct {
	common
	// Interarrivals lists the mean arrival gaps to sweep, µs (the x-axis
	// renders as offered load in req/s across the whole cluster).
	Interarrivals []int64
	// Nodes and DisksPerNode shape the cluster.
	Nodes        int
	DisksPerNode int
	// Tenants, TenantSkew and Classes shape the workload: Zipf-skewed
	// tenants pinned to block zones, class = tenant mod Classes.
	Tenants    int
	TenantSkew float64
	Classes    int
	// AdmitRate and AdmitBurst parameterize the per-class token bucket
	// (tokens/s and burst size) for the "token" admission series.
	AdmitRate  int64
	AdmitBurst int64
}

// DefaultClusterConfig sweeps a 4-node cluster of single-disk arrays from
// comfortable load into saturation. Skew 1.3 over 8 tenants concentrates
// roughly half the traffic on two tenants' zones, which is what separates
// load-blind from load-aware routing.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		common:        common{Seed: 1, Requests: 4000},
		Interarrivals: []int64{8_000, 5_000, 3_500, 2_500, 2_000},
		Nodes:         4,
		DisksPerNode:  1,
		Tenants:       8,
		TenantSkew:    1.3,
		Classes:       3,
		AdmitRate:     150,
		AdmitBurst:    30,
	}
}

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

// Cluster sweeps offered load for every (router, admission) pairing and
// reports three views of the same runs: the stringent class-0 loss rate,
// class-0 mean completion latency of served requests, and the Jain
// fairness index over
// per-tenant goodput. Deterministic: the same config renders the same
// CSV for any worker count.
func Cluster(cfg ClusterConfig) (*Result, *Result, *Result, error) {
	if len(cfg.Interarrivals) == 0 {
		cfg.Interarrivals = DefaultClusterConfig().Interarrivals
	}
	model, err := xp32150()
	if err != nil {
		return nil, nil, nil, err
	}
	x := loadAxis(cfg.Interarrivals)
	notes := []string{
		fmt.Sprintf("%d nodes × %d disks, SCAN-EDF members; %d requests per point, %d tenants (zipf %.1f, zoned), %d classes",
			cfg.Nodes, cfg.DisksPerNode, cfg.Requests, cfg.Tenants, cfg.TenantSkew, cfg.Classes),
		fmt.Sprintf("token admission: per-class bucket, %d tokens/s, burst %d; always = no admission control",
			cfg.AdmitRate, cfg.AdmitBurst),
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
	return loss, lat, jain, sweep(cfg.Workers, names, func(x, s int) ([]float64, error) {
		pol := clusterPolicies[s]
		ccfg := cluster.Config{
			Nodes: cfg.Nodes, DisksPerNode: cfg.DisksPerNode, Disk: model,
			NewScheduler: func(int, int) (sched.Scheduler, error) { return scanEDFPolicy.build() },
			DropLate:     true, Seed: cfg.Seed, Classes: cfg.Classes,
		}
		// Routers and buckets are stateful: built fresh per cell so cells
		// share nothing.
		var err error
		if ccfg.Router, err = cluster.NewRouter(pol.router); err != nil {
			return nil, err
		}
		if ccfg.Admission, err = cluster.NewAdmitter(pol.admit, cfg.Classes, cfg.AdmitRate, cfg.AdmitBurst); err != nil {
			return nil, err
		}
		trace, err := workload.Open{
			Seed: cfg.Seed, Count: cfg.Requests, MeanInterarrival: cfg.Interarrivals[x],
			Dims: 1, Levels: 4,
			DeadlineMin: 50_000, DeadlineMax: 800_000,
			Cylinders: ccfg.MaxBlocks(), Size: 64 << 10,
			Tenants: cfg.Tenants, TenantSkew: cfg.TenantSkew,
			Classes: cfg.Classes, TenantZones: true,
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
