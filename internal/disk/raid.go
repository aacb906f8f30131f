package disk

import "fmt"

// RAID5 maps logical file blocks onto a rotating-parity array, the "4 data
// + 1 parity" layout of Table 1. Stripe s places its parity unit on disk
// (disks-1 - s mod disks) (left-symmetric rotation) and its data units on
// the remaining disks in order.
type RAID5 struct {
	Disks     int   // total disks, data + 1 parity per stripe
	BlockSize int64 // stripe unit == file block size, bytes
	Model     *Model
}

// NewRAID5 returns a RAID-5 mapper over disks identical drives.
func NewRAID5(disks int, blockSize int64, m *Model) (*RAID5, error) {
	if disks < 3 {
		return nil, fmt.Errorf("disk: RAID-5 needs at least 3 disks, got %d", disks)
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("disk: invalid block size %d", blockSize)
	}
	if m == nil {
		return nil, fmt.Errorf("disk: RAID-5 needs a disk model")
	}
	return &RAID5{Disks: disks, BlockSize: blockSize, Model: m}, nil
}

// DataDisks returns the number of data units per stripe.
func (r *RAID5) DataDisks() int { return r.Disks - 1 }

// PhysOp is one physical disk operation produced by mapping a logical
// block access.
type PhysOp struct {
	Disk     int
	Cylinder int
	Size     int64
	Write    bool
}

// ParityDisk returns the parity disk of stripe s (left-symmetric layout).
func (r *RAID5) ParityDisk(s int64) int {
	return r.Disks - 1 - int(s%int64(r.Disks))
}

// locate maps logical block b to its stripe, data disk and per-disk block
// offset.
func (r *RAID5) locate(block int64) (stripe int64, disk int, diskBlock int64) {
	stripe = block / int64(r.DataDisks())
	lane := int(block % int64(r.DataDisks()))
	parity := r.ParityDisk(stripe)
	disk = lane
	if disk >= parity {
		disk++ // skip the parity disk in this stripe
	}
	return stripe, disk, stripe
}

// CylinderOf converts a per-disk block number to a cylinder by walking the
// zoned capacity (blocks near the start of the address space land on outer
// cylinders, like real LBA layouts).
func (r *RAID5) CylinderOf(diskBlock int64) int {
	byteOff := diskBlock * r.BlockSize
	var acc int64
	for _, z := range r.Model.Zones {
		zoneBytes := int64(z.Cylinders) * int64(r.Model.TracksPer) * int64(z.SectorsPerTrack) * int64(r.Model.SectorSize)
		if byteOff < acc+zoneBytes {
			perCyl := int64(r.Model.TracksPer) * int64(z.SectorsPerTrack) * int64(r.Model.SectorSize)
			return z.FirstCyl + int((byteOff-acc)/perCyl)
		}
		acc += zoneBytes
	}
	// Wrap addresses beyond capacity; simulation workloads may exceed the
	// 2.1 GB drive and real servers would span multiple stripes anyway.
	return r.CylinderOf(diskBlock % (acc / r.BlockSize))
}

// MaxBlocks returns the number of logical data blocks the array holds.
func (r *RAID5) MaxBlocks() int64 {
	perDisk := r.Model.Capacity() / r.BlockSize
	return perDisk * int64(r.DataDisks())
}

// Layout exposes the logical-to-physical mapping of a block: its stripe,
// the data disk holding it, and the cylinder of its per-disk block.
func (r *RAID5) Layout(block int64) (stripe int64, dataDisk, cylinder int) {
	s, d, db := r.locate(block)
	return s, d, r.CylinderOf(db)
}

// Read maps a logical block read to physical operations: a single-disk
// read. The fixed-size result is a value, so mapping allocates nothing.
func (r *RAID5) Read(block int64) [1]PhysOp {
	_, d, db := r.locate(block)
	return [1]PhysOp{{Disk: d, Cylinder: r.CylinderOf(db), Size: r.BlockSize}}
}

// Write maps a logical block write to its read-modify-write sequence: read
// old data, read old parity, write new data, write new parity — two
// operations on each of two disks. Like Read, it returns a value.
func (r *RAID5) Write(block int64) [4]PhysOp {
	s, d, db := r.locate(block)
	cyl := r.CylinderOf(db)
	p := r.ParityDisk(s)
	return [4]PhysOp{
		{Disk: d, Cylinder: cyl, Size: r.BlockSize},
		{Disk: p, Cylinder: cyl, Size: r.BlockSize},
		{Disk: d, Cylinder: cyl, Size: r.BlockSize, Write: true},
		{Disk: p, Cylinder: cyl, Size: r.BlockSize, Write: true},
	}
}

// DegradedWrite maps a logical block write with disk failed down. With
// the data disk lost the new parity is computed from the other data
// units (N-2 reads) and written; the data itself is absorbed — it is
// recoverable from parity and rewritten by rebuild. With the parity
// disk lost the data unit is written unprotected. Otherwise the normal
// read-modify-write applies.
func (r *RAID5) DegradedWrite(block int64, failed int) []PhysOp {
	s, d, db := r.locate(block)
	cyl := r.CylinderOf(db)
	p := r.ParityDisk(s)
	switch failed {
	case d:
		ops := make([]PhysOp, 0, r.Disks-1)
		for dd := 0; dd < r.Disks; dd++ {
			if dd == d || dd == p {
				continue
			}
			ops = append(ops, PhysOp{Disk: dd, Cylinder: cyl, Size: r.BlockSize})
		}
		return append(ops, PhysOp{Disk: p, Cylinder: cyl, Size: r.BlockSize, Write: true})
	case p:
		return []PhysOp{{Disk: d, Cylinder: cyl, Size: r.BlockSize, Write: true}}
	default:
		ops := r.Write(block)
		return ops[:]
	}
}

// RebuildStripe returns the reads that reconstruct per-disk block db of
// the failed disk: one read of the same stripe row on every survivor.
func (r *RAID5) RebuildStripe(db int64, failed int) []PhysOp {
	cyl := r.CylinderOf(db)
	ops := make([]PhysOp, 0, r.Disks-1)
	for d := 0; d < r.Disks; d++ {
		if d == failed {
			continue
		}
		ops = append(ops, PhysOp{Disk: d, Cylinder: cyl, Size: r.BlockSize})
	}
	return ops
}
