package wei

import (
	"fmt"
	"os"

	"colormatch/internal/yamlite"
)

// ModuleSpec is one module entry in a workcell file.
type ModuleSpec struct {
	Name   string
	Type   string
	Config yamlite.Map
}

// WorkcellSpec is the declarative description of a workcell: "a declarative
// YAML notation is used to specify how a workcell is configured from a set
// of modules."
type WorkcellSpec struct {
	Name      string
	Modules   []ModuleSpec
	Locations []string
}

// ParseWorkcell decodes a workcell YAML document.
func ParseWorkcell(data []byte) (*WorkcellSpec, error) {
	doc, err := yamlite.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("wei: workcell: %w", err)
	}
	root, err := yamlite.AsMap(doc)
	if err != nil {
		return nil, fmt.Errorf("wei: workcell: %w", err)
	}
	name, err := yamlite.Str(root, "name")
	if err != nil {
		return nil, fmt.Errorf("wei: workcell: %w", err)
	}
	spec := &WorkcellSpec{Name: name}
	if _, ok := root["locations"]; ok {
		locs, err := yamlite.StringList(root, "locations")
		if err != nil {
			return nil, fmt.Errorf("wei: workcell: %w", err)
		}
		spec.Locations = locs
	}
	mods, err := yamlite.SubList(root, "modules")
	if err != nil {
		return nil, fmt.Errorf("wei: workcell: %w", err)
	}
	seen := map[string]bool{}
	for i, m := range mods {
		mm, err := yamlite.AsMap(m)
		if err != nil {
			return nil, fmt.Errorf("wei: workcell module %d: %w", i, err)
		}
		mname, err := yamlite.Str(mm, "name")
		if err != nil {
			return nil, fmt.Errorf("wei: workcell module %d: %w", i, err)
		}
		mtype, err := yamlite.Str(mm, "type")
		if err != nil {
			return nil, fmt.Errorf("wei: workcell module %q: %w", mname, err)
		}
		if seen[mname] {
			return nil, fmt.Errorf("wei: workcell: duplicate module %q", mname)
		}
		seen[mname] = true
		ms := ModuleSpec{Name: mname, Type: mtype}
		if cfg, ok := mm["config"]; ok && cfg != nil {
			cm, err := yamlite.AsMap(cfg)
			if err != nil {
				return nil, fmt.Errorf("wei: workcell module %q config: %w", mname, err)
			}
			ms.Config = cm
		}
		spec.Modules = append(spec.Modules, ms)
	}
	if len(spec.Modules) == 0 {
		return nil, fmt.Errorf("wei: workcell %q declares no modules", name)
	}
	return spec, nil
}

// LoadWorkcell reads and parses a workcell YAML file.
func LoadWorkcell(path string) (*WorkcellSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wei: workcell: %w", err)
	}
	return ParseWorkcell(data)
}

// Module returns the spec of the named module.
func (w *WorkcellSpec) Module(name string) (ModuleSpec, bool) {
	for _, m := range w.Modules {
		if m.Name == name {
			return m, true
		}
	}
	return ModuleSpec{}, false
}

// Marshal re-encodes the spec as YAML.
func (w *WorkcellSpec) Marshal() ([]byte, error) {
	mods := yamlite.List{}
	for _, m := range w.Modules {
		mm := yamlite.Map{"name": m.Name, "type": m.Type}
		if len(m.Config) > 0 {
			mm["config"] = m.Config
		}
		mods = append(mods, mm)
	}
	root := yamlite.Map{"name": w.Name, "modules": mods}
	if len(w.Locations) > 0 {
		locs := yamlite.List{}
		for _, l := range w.Locations {
			locs = append(locs, l)
		}
		root["locations"] = locs
	}
	return yamlite.Marshal(root)
}
