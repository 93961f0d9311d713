package db

import "encoding/json"

// dbWire is the JSON shape of a database: its facts in insertion order.
// Indexes and blocks are rebuilt on decode, exactly as in the gob snapshot
// format; the JSON form exists for the certd wire protocol, where sampled
// falsifying repairs travel inside verdicts.
type dbWire struct {
	Facts []Fact `json:"facts"`
}

// MarshalJSON encodes the database as its fact list.
func (d *DB) MarshalJSON() ([]byte, error) {
	return json.Marshal(dbWire{Facts: d.Facts()})
}

// UnmarshalJSON decodes a database produced by MarshalJSON, rebuilding all
// indexes and rejecting invalid facts and signature conflicts.
func (d *DB) UnmarshalJSON(data []byte) error {
	var w dbWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := New()
	for _, f := range w.Facts {
		if err := out.Add(f); err != nil {
			return err
		}
	}
	d.assignFrom(out)
	return nil
}
