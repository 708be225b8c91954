package preprocess

// FromLabels builds an Encoded relation from label literals, one []int32
// per row, packed at the width the largest label needs, and an Encoder
// whose spine is the same packed rows. Labels need not be dense, so no
// partitions are built: it serves the agree kernels only. It is exported
// to the package's external tests, which also drive cover's collector
// over these kernels and so cannot live inside the package.
func FromLabels(ncols int, rows [][]int32) (*Encoded, *Encoder) {
	e := &Encoded{Name: "literal", Attrs: make([]string, ncols), NumRows: len(rows), NumLabels: make([]int, ncols)}
	most := 0
	for _, row := range rows {
		for c, l := range row {
			e.NumLabels[c] = max(e.NumLabels[c], int(l)+1)
			most = max(most, int(l)+1)
		}
	}
	e.rows = newPackedRows(ncols, laneFormatFor(most))
	for _, row := range rows {
		e.rows.appendRow(row)
	}
	return e, &Encoder{rows: e.rows}
}
