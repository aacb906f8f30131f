package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/disk"
)

// table1 renders the disk model against the paper's Table 1, including the
// quantities derived by the calibration (mean seek, capacity, media rate)
// so a reader can confirm the model honours the published figures.
func table1(w io.Writer, _ Params) ([]*Result, error) {
	m, err := xp32150()
	if err != nil {
		return nil, err
	}
	r5, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "== table1: Disk Model (Quantum XP32150, PanaViss server) ==")
	rows := [][]string{
		{"parameter", "paper", "model"},
		{"No. of Cylinders", "3832", fmt.Sprintf("%d", m.Cylinders)},
		{"Tracks/Cylinder", "10", fmt.Sprintf("%d", m.TracksPer)},
		{"No. of Zones", "16", fmt.Sprintf("%d", len(m.Zones))},
		{"Sector Size", "512", fmt.Sprintf("%d", m.SectorSize)},
		{"Rotation Speed", "7200 RPM", fmt.Sprintf("%d RPM", m.RPM)},
		{"Average Seek", "8.5 ms", fmt.Sprintf("%.2f ms (calibrated)", m.MeanSeek()/1000)},
		{"Max Seek", "18 ms", fmt.Sprintf("%.1f ms", float64(m.SeekTime(0, m.Cylinders-1))/1000)},
		{"Disk Size", "2.1 GB", fmt.Sprintf("%.2f GB", float64(m.Capacity())/1e9)},
		{"File Block Size", "64 KB", fmt.Sprintf("%d KB", r5.BlockSize>>10)},
		{"Transfer Speed", "~MB/s", fmt.Sprintf("%.2f MB/s avg media rate", m.AvgTransferRate()/1e6)},
		{"Disks / RAID 5", "4 data + 1 parity", fmt.Sprintf("%d data + 1 parity", r5.DataDisks())},
	}
	writeAligned(w, rows)
	fmt.Fprintln(w, "   note: seek curve seek(d) = min + (max-min)*(d/Dmax)^gamma, gamma")
	fmt.Fprintln(w, "   note: calibrated so the uniform-pair mean seek equals the paper's 8.5 ms")
	fmt.Fprintln(w)
	return nil, nil
}
