package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/serve"
)

// runServeCalib runs the observe-predict-calibrate loop on the generated
// trace: the simulator predicts per-request outcomes, the live dispatcher
// serves the identical trace on the dilated wall clock against the
// emulated disk, and the report scores how well the prediction held.
func runServeCalib(out io.Writer, opt options, m *disk.Model, trace []*core.Request) error {
	cal, err := serve.Calibrate(context.Background(), serve.CalibrationConfig{
		NewScheduler: func() (sched.Scheduler, error) {
			return opt.build(opt.sched, m)
		},
		Service:  disk.ServiceModel{Disk: m},
		Dilation: opt.dilation,
		DropLate: opt.drop,
	}, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "calibrate: %d requests, dilation %g, drop=%v, sched %s\n",
		len(trace), opt.dilation, opt.drop, opt.sched)
	fmt.Fprintf(out, "  %-5s %8s %8s %10s %12s %12s\n",
		"side", "served", "dropped", "abandoned", "head-travel", "makespan(s)")
	fmt.Fprintf(out, "  %-5s %8d %8d %10d %12d %12.2f\n",
		"sim", cal.SimServed, cal.SimDropped, 0, cal.SimHeadTravel, float64(cal.SimMakespan)/1e6)
	fmt.Fprintf(out, "  %-5s %8d %8d %10d %12d %12.2f\n",
		"live", cal.LiveServed, cal.LiveDropped, cal.LiveAbandoned, cal.LiveHeadTravel, float64(cal.LiveMakespan)/1e6)
	fmt.Fprintf(out, "  aligned %d/%d, latency MAPE %s, order r %s (exact %v), head-travel delta %s, wall %v\n",
		cal.Aligned, cal.SimServed,
		fmtScore(cal.LatencyMAPE, "%.2f%%"), fmtScore(cal.OrderPearson, "%.4f"), cal.OrderExact,
		fmtScore(100*cal.HeadTravelDelta(), "%+.2f%%"), cal.Wall.Round(time.Millisecond))
	return nil
}

// fmtScore renders a calibration score, spelling out undefined ones.
func fmtScore(v float64, format string) string {
	if math.IsNaN(v) {
		return "undefined"
	}
	return fmt.Sprintf(format, v)
}
