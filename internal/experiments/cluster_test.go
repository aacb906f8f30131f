package experiments

import (
	"slices"
	"testing"
)

func TestClusterIdenticalAcrossWorkers(t *testing.T) { sameAtWorkers2(t, "cluster") }

// Under zoned tenant skew the experiment must actually separate the
// policies: load-blind round-robin and load-aware least-loaded may not
// render identical series, zone-affinity routing trades fairness for
// locality, and admission control must engage at saturation.
func TestClusterPoliciesDiverge(t *testing.T) {
	rs := goldenResults(t, "cluster")
	loss, lat, jain := rs[0], rs[1], rs[2]
	last := len(loss.X) - 1
	rr, least := series(t, loss, "rr+always"), series(t, loss, "least+always")
	expect(t, !slices.Equal(rr, least) || !slices.Equal(series(t, jain, "rr+always"), series(t, jain, "least+always")),
		"round-robin and least-loaded rendered identical loss and fairness under skewed load")
	// The load-spreading policies are lossless at the lightest load, stay
	// within 2 points of each other and nearly perfectly fair throughout.
	expect(t, rr[0] == 0 && least[0] == 0, "rr %.1f%% / least %.1f%% class-0 loss at the lightest load", rr[0], least[0])
	for i := range rr {
		expect(t, rr[i]-least[i] <= 2 && least[i]-rr[i] <= 2, "%v req/s: rr %.1f%% and least %.1f%% more than 2 points apart", loss.X[i], rr[i], least[i])
		expect(t, min(series(t, jain, "rr+always")[i], series(t, jain, "least+always")[i]) >= 0.99, "%v req/s: rr/least Jain below 0.99", loss.X[i])
	}
	// Zone-affinity routing loses from the lightest load on, grows less
	// fair with every load step, and pays for it with shorter seeks: at
	// saturation its mean latency runs 50+ ms below rr's.
	affJain := series(t, jain, "affinity+always")
	expect(t, series(t, loss, "affinity+always")[0] > 0, "affinity routing lossless at the lightest load")
	for i := 1; i < len(affJain); i++ {
		expect(t, affJain[i] < affJain[i-1], "affinity Jain does not fall with load: %v", affJain)
	}
	expect(t, series(t, lat, "rr+always")[last]-series(t, lat, "affinity+always")[last] >= 50, "affinity latency not 50+ ms below rr's at saturation")
	expect(t, affJain[last] < series(t, jain, "rr+always")[last], "affinity routing not less fair than rr at saturation")
	// The token bucket changes nothing below 285 req/s and engages from
	// there: it trades dispatch drops for up-front admission rejections,
	// raising class-0 loss for every router, and pulls rr's fairness down.
	for _, router := range []string{"rr", "least", "affinity"} {
		always, token := series(t, loss, router+"+always"), series(t, loss, router+"+token")
		for i, load := range loss.X {
			expect(t, (load < 285 && token[i] == always[i]) || (load >= 285 && token[i] > always[i]),
				"%v req/s: %s+token loss %.1f%% vs always %.1f%%", load, router, token[i], always[i])
		}
	}
	expect(t, series(t, jain, "rr+token")[last] < series(t, jain, "rr+always")[last], "rr+token not less fair than rr+always at saturation")
}
