package design_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/sql"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func seedCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildCatalog(10000)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// goldenDesign has two partitionings (listed out of table order), an
// index on a fragment and an index on a base table.
func goldenDesign() design.Design {
	return design.Design{
		Indexes: []inum.IndexSpec{
			{Table: "photoobj_p1", Columns: []string{"ra", "dec"}},
			{Table: "field", Columns: []string{"run", "camcol"}},
		},
		Partitions: []design.Partition{
			{Table: "specobj", Fragments: [][]string{{"z", "zerr"}, {"plate", "mjd", "bestobjid"}}},
			{Table: "photoobj", Fragments: [][]string{{"ra", "dec"}, {"run", "camcol", "field"}}},
		},
	}
}

// TestPersistedKeysGolden pins every design identity that is journaled
// (cost-memo keys in snapshots, SharedState.Sig in the write-ahead log)
// or sent over the wire (the what-if signature). The expected strings
// were produced by the implementation these keys were first persisted
// with; a refactor that changes any of them silently turns a warm
// recovery into re-pricing, so it must fail here instead.
func TestPersistedKeysGolden(t *testing.T) {
	cat := seedCatalog(t)
	d := goldenDesign()

	if got, want := design.Key(d), "field(run,camcol);photoobj_p1(ra,dec)//part:photoobj:ra,dec|run,camcol,field;specobj:z,zerr|plate,mjd,bestobjid"; got != want {
		t.Errorf("Key = %q\n want %q", got, want)
	}
	ixOnly := design.Design{Indexes: d.Indexes}
	if got, want := design.Key(ixOnly), "field(run,camcol);photoobj_p1(ra,dec)"; got != want {
		t.Errorf("index-only Key = %q, want %q", got, want)
	}
	if got := costlab.ConfigKey(costlab.Config(d.Indexes)); got != design.Key(ixOnly) {
		t.Errorf("ConfigKey %q != index-only Key %q", got, design.Key(ixOnly))
	}
	if got := design.Key(design.Design{}); got != "" {
		t.Errorf("empty Key = %q", got)
	}

	parents, err := design.Validate(cat, d)
	if err != nil {
		t.Fatal(err)
	}
	// One query per footprint class, nested loops off.
	for _, tc := range []struct{ class, query, want string }{
		{"partitioned table", "SELECT objid, ra FROM photoobj WHERE ra BETWEEN 10 AND 10.5",
			"ix:photoobj_p1(ra,dec);part:photoobj:ra,dec|run,camcol,field;nl:off"},
		{"indexed base table", "SELECT fieldid FROM field WHERE run = 93 AND camcol = 3",
			"ix:field(run,camcol)"},
		{"join of partitioned tables", "SELECT p.objid, s.z FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z > 0.1",
			"ix:photoobj_p1(ra,dec);part:photoobj:ra,dec|run,camcol,field;part:specobj:z,zerr|plate,mjd,bestobjid;nl:off"},
		{"untouched table", "SELECT plate FROM platex WHERE nexp > 3",
			""},
		{"join of plain tables", "SELECT f.fieldid, x.plate FROM field f, platex x WHERE f.mjd = x.mjd AND f.run = 93",
			"ix:field(run,camcol);nl:off"},
	} {
		sel, err := sql.ParseSelect(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if got := design.ProjectedKey(d, parents, sql.FootprintOf(sel), false); got != tc.want {
			t.Errorf("%s: ProjectedKey = %q\n want %q", tc.class, got, tc.want)
		}
	}

	if got := design.FragName("photoobj", 0) + " " + design.FragName("specobj", 1); got != "photoobj_p1 specobj_p2" {
		t.Errorf("FragName = %q", got)
	}

	ws := whatif.NewSession(cat)
	created, err := design.Install(ws, d, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ws.Signature(), "ix:field(run,camcol);ix:photoobj_p1(ra,dec);"+
		"tab:photoobj_p1<photoobj(objid,ra,dec);tab:photoobj_p2<photoobj(objid,run,camcol,field);"+
		"tab:specobj_p1<specobj(specobjid,z,zerr);tab:specobj_p2<specobj(specobjid,bestobjid,plate,mjd);nl:off"; got != want {
		t.Errorf("Signature = %q\n want %q", got, want)
	}
	if len(created) != 2 || created[0].Name != whatif.HypoPrefix+"ix1_photoobj_p1_ra_dec" || created[1].Name != whatif.HypoPrefix+"ix2_field_run_camcol" {
		t.Errorf("generated names do not follow d.Indexes: %v", created)
	}
}
