package workload

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/recommend"
	"repro/internal/sql"
)

// Queries returns the 30 prototypical astronomy queries the
// demonstration workload uses (§4: "a set of 30 prototypical
// queries"), modelled on the published SDSS sample queries: cone and
// box searches, colour cuts, photometric/spectroscopic joins,
// neighbour pair analyses, and survey bookkeeping aggregates.
func Queries() []string {
	return []string{
		// --- positional (cone/box) searches, varying selectivity ---
		/* Q1 */ `SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 179.5 AND 180.1 AND dec BETWEEN -1.0 AND -0.4`,
		/* Q2 */ `SELECT objid, ra, dec, r FROM photoobj WHERE ra BETWEEN 140 AND 141 AND dec BETWEEN 20 AND 21 AND r < 22`,
		/* Q3 */ `SELECT objid, u, g, r, i, z FROM photoobj WHERE ra BETWEEN 195 AND 195.2 AND dec BETWEEN 2.5 AND 2.7`,
		/* Q4 */ `SELECT COUNT(*) FROM photoobj WHERE ra BETWEEN 250 AND 251 AND dec BETWEEN 50 AND 51`,
		/* Q5 */ `SELECT objid, ra, dec FROM photoobj WHERE htmid BETWEEN 100000000 AND 100500000`,
		/* Q6 */ `SELECT objid, ra, dec, type FROM photoobj WHERE ra BETWEEN 10 AND 10.5 AND type = 6`,
		// --- photometric attribute cuts ---
		/* Q7 */ `SELECT objid, g, r FROM photoobj WHERE g - r > 1.4 AND r BETWEEN 18 AND 18.1`,
		/* Q8 */ `SELECT objid, u, g FROM photoobj WHERE u - g < 0.4 AND g < 14.5`,
		/* Q9 */ `SELECT objid, psfmag_r, petromag_r FROM photoobj WHERE psfmag_r - petromag_r > 0.05 AND petrorad_r < 2 AND r BETWEEN 21 AND 21.05`,
		/* Q10 */ `SELECT objid, r, extinction_r FROM photoobj WHERE extinction_r > 0.9 AND r < 12.5`,
		/* Q11 */ `SELECT objid, run, camcol, field FROM photoobj WHERE run = 93 AND camcol = 3 AND field BETWEEN 100 AND 120`,
		/* Q12 */ `SELECT objid FROM photoobj WHERE flags > 1000000000 AND mode = 1 AND status = 42`,
		// --- photometric / spectroscopic joins ---
		/* Q13 */ `SELECT p.objid, s.z FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.z BETWEEN 2.98 AND 3.0`,
		/* Q14 */ `SELECT p.objid, p.r, s.z, s.specclass FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.specclass = 3 AND s.zconf > 0.99`,
		/* Q15 */ `SELECT p.objid, p.u, p.g, s.z FROM photoobj p JOIN specobj s ON p.objid = s.bestobjid WHERE s.z > 2.9 AND p.type = 3 ORDER BY s.z DESC LIMIT 100`,
		/* Q16 */ `SELECT s.plate, COUNT(*) AS n FROM specobj s WHERE s.sn_median > 29 GROUP BY s.plate ORDER BY n DESC LIMIT 20`,
		/* Q17 */ `SELECT p.objid, s.velocity FROM photoobj p, specobj s WHERE p.objid = s.bestobjid AND s.velocity > 498 AND p.type = 6`,
		/* Q18 */ `SELECT s.specobjid, s.z, s.zerr FROM specobj s WHERE s.zstatus = 7 AND s.zerr < 0.0001`,
		// --- neighbour pair analyses ---
		/* Q19 */ `SELECT n.objid, n.neighborobjid, n.distance FROM neighbors n WHERE n.distance < 0.005 AND n.neighbortype = 3`,
		/* Q20 */ `SELECT p.objid, n.neighborobjid FROM photoobj p, neighbors n WHERE p.objid = n.objid AND n.distance < 0.002 AND p.type = 6`,
		/* Q21 */ `SELECT p.objid, q.objid AS objid2, n.distance FROM photoobj p, neighbors n, photoobj q WHERE p.objid = n.objid AND q.objid = n.neighborobjid AND n.distance < 0.001 AND p.type = 6 AND q.type = 6`,
		/* Q22 */ `SELECT n.neighbortype, COUNT(*) AS pairs, AVG(n.distance) FROM neighbors n GROUP BY n.neighbortype`,
		// --- survey bookkeeping ---
		/* Q23 */ `SELECT f.run, f.camcol, COUNT(*) AS nfields, SUM(f.nobjects) FROM field f WHERE f.quality = 3 GROUP BY f.run, f.camcol ORDER BY nfields DESC LIMIT 10`,
		/* Q24 */ `SELECT f.fieldid, f.ra, f.dec FROM field f WHERE f.ra BETWEEN 180 AND 185 AND f.dec BETWEEN 0 AND 5`,
		/* Q25 */ `SELECT x.plate, x.mjd FROM platex x WHERE x.quality = 1 AND x.nexp > 8 ORDER BY x.mjd`,
		// --- mixed analytical ---
		/* Q26 */ `SELECT run, COUNT(*) AS n, AVG(r) AS mean_r FROM photoobj WHERE type = 3 GROUP BY run HAVING COUNT(*) > 10 ORDER BY mean_r LIMIT 25`,
		/* Q27 */ `SELECT camcol, type, COUNT(*) FROM photoobj WHERE mjd BETWEEN 52000 AND 52010 GROUP BY camcol, type`,
		/* Q28 */ `SELECT objid, rowc, colc FROM photoobj WHERE rowc BETWEEN 700 AND 702 AND colc BETWEEN 1000 AND 1002`,
		/* Q29 */ `SELECT p.objid, p.r, f.quality FROM photoobj p, field f WHERE p.run = f.run AND p.camcol = f.camcol AND p.field = f.field AND f.quality = 1 AND p.r < 12.2`,
		/* Q30 */ `SELECT objid, airmass_r, sky_r FROM photoobj WHERE airmass_r > 1.59 AND sky_r > 21.9 ORDER BY airmass_r DESC LIMIT 50`,
	}
}

// ParseQueries parses the demonstration workload into recommender
// queries with unit weights.
func ParseQueries() ([]recommend.Query, error) {
	return recommend.ParseWorkload(Queries())
}

// FormatWorkloadFile renders queries as a workload file: one
// semicolon-terminated statement per stanza, with -- Q<number>
// comment headers. This is the file format the PARINDA GUI (and our
// CLI) accepts as the "query workload file" input.
func FormatWorkloadFile(queries []string) string {
	var b strings.Builder
	b.WriteString("-- PARINDA workload file\n")
	for i, q := range queries {
		fmt.Fprintf(&b, "-- Q%d\n%s;\n\n", i+1, strings.TrimSpace(q))
	}
	return b.String()
}

// ParseWorkloadFile parses a workload file's contents into SQL
// statements, validating that each is a SELECT.
func ParseWorkloadFile(contents string) ([]string, error) {
	stmts, err := sql.SplitStatements(contents)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	for i, s := range stmts {
		if _, err := sql.ParseSelect(s); err != nil {
			return nil, fmt.Errorf("workload: statement %d: %w", i+1, err)
		}
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("workload: file contains no statements")
	}
	return stmts, nil
}

// LoadWorkloadFile reads and parses a workload file from disk.
func LoadWorkloadFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return ParseWorkloadFile(string(data))
}
