package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"sfcsched/internal/core"
)

// WriteCSV serializes a trace with dims priority columns. The format is
// what schedsim -emit-trace writes and -replay reads back; it carries no
// tenant or class tags:
//
//	id,arrival_us,deadline_us,cylinder,size,write,value,priority_0,...
//
// Rows are appended with strconv into one chunked buffer instead of going
// through encoding/csv's per-record field slices — no field ever needs
// quoting (digits and true/false only), so the bytes are identical and a
// 100k-request trace writes with a handful of allocations (see
// BenchmarkWriteCSV).
func WriteCSV(w io.Writer, trace []*core.Request, dims int) error {
	const chunk = 64 << 10
	buf := make([]byte, 0, chunk)
	buf = append(buf, "id,arrival_us,deadline_us,cylinder,size,write,value"...)
	for d := 0; d < dims; d++ {
		buf = append(buf, ",priority_"...)
		buf = strconv.AppendInt(buf, int64(d), 10)
	}
	buf = append(buf, '\n')
	for _, r := range trace {
		buf = strconv.AppendUint(buf, r.ID, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, r.Arrival, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, r.Deadline, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Cylinder), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, r.Size, 10)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, r.Write)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.Value), 10)
		for d := 0; d < dims; d++ {
			p := 0
			if d < len(r.Priorities) {
				p = r.Priorities[d]
			}
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(p), 10)
		}
		buf = append(buf, '\n')
		// Flush near the chunk boundary so the buffer never grows past
		// one chunk (a row is far shorter than the slack left here).
		if len(buf) > chunk-1024 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses a trace written by WriteCSV. Priority dimensionality is
// inferred from the header.
//
// Requests and their priority vectors are carved out of chunked slabs
// (views into them, like Arena's) rather than allocated per row; the
// reader reuses one record buffer across rows.
func ReadCSV(r io.Reader) ([]*core.Request, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading CSV header: %w", err)
	}
	const fixed = 7
	if len(header) < fixed || header[0] != "id" || header[1] != "arrival_us" {
		return nil, fmt.Errorf("workload: unrecognized trace header %v", header)
	}
	dims := len(header) - fixed
	// Slab chunks are fixed-size and never grown in place, so pointers and
	// subslices into a full chunk stay valid when the next chunk starts.
	const slab = 1024
	var reqSlab []core.Request
	var prioSlab []int
	var trace []*core.Request
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		if len(row) != fixed+dims {
			return nil, fmt.Errorf("workload: line %d: %d fields, want %d", line, len(row), fixed+dims)
		}
		if len(reqSlab) == cap(reqSlab) {
			reqSlab = make([]core.Request, 0, slab)
		}
		reqSlab = reqSlab[:len(reqSlab)+1]
		req := &reqSlab[len(reqSlab)-1]
		if req.ID, err = strconv.ParseUint(row[0], 10, 64); err != nil {
			return nil, fmt.Errorf("workload: line %d id: %w", line, err)
		}
		if req.Arrival, err = strconv.ParseInt(row[1], 10, 64); err != nil {
			return nil, fmt.Errorf("workload: line %d arrival: %w", line, err)
		}
		if req.Deadline, err = strconv.ParseInt(row[2], 10, 64); err != nil {
			return nil, fmt.Errorf("workload: line %d deadline: %w", line, err)
		}
		if req.Cylinder, err = strconv.Atoi(row[3]); err != nil {
			return nil, fmt.Errorf("workload: line %d cylinder: %w", line, err)
		}
		if req.Size, err = strconv.ParseInt(row[4], 10, 64); err != nil {
			return nil, fmt.Errorf("workload: line %d size: %w", line, err)
		}
		if req.Write, err = strconv.ParseBool(row[5]); err != nil {
			return nil, fmt.Errorf("workload: line %d write: %w", line, err)
		}
		if req.Value, err = strconv.Atoi(row[6]); err != nil {
			return nil, fmt.Errorf("workload: line %d value: %w", line, err)
		}
		if dims > 0 {
			if len(prioSlab)+dims > cap(prioSlab) {
				n := slab * dims
				if n < dims {
					n = dims
				}
				prioSlab = make([]int, 0, n)
			}
			base := len(prioSlab)
			prioSlab = prioSlab[:base+dims]
			req.Priorities = prioSlab[base : base+dims : base+dims]
			for d := 0; d < dims; d++ {
				if req.Priorities[d], err = strconv.Atoi(row[fixed+d]); err != nil {
					return nil, fmt.Errorf("workload: line %d priority %d: %w", line, d, err)
				}
			}
		}
		trace = append(trace, req)
	}
	return trace, nil
}
