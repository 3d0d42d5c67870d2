package sgmlconf

import (
	"errors"
	"reflect"
	"testing"
)

func TestParseCampaignConfig(t *testing.T) {
	// Variant b still carries the removed engine and data-plane attributes:
	// a campaign file written for an older schema parses, and they are
	// ignored like any unknown attribute.
	c, err := ParseCampaignConfig([]byte(`<Campaign name="sweep" workers="4">
  <Variant name="a" scenario="drill.scenario.xml" seeds="1, 3-5 ,20"/>
  <Variant name="b" scenario="drill.scenario.xml" model="alt-model" seeds="2"
           repeat="3" sequential="true" framePooling="off"/>
  <Variant name="c" scenario="other.scenario.xml"/>
</Campaign>`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "sweep" || c.Workers != 4 || len(c.Variants) != 3 {
		t.Fatalf("campaign = %+v", c)
	}
	seeds, err := c.Variants[0].SeedList()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seeds, []int64{1, 3, 4, 5, 20}) {
		t.Errorf("seeds = %v", seeds)
	}
	if c.Variants[1].Model != "alt-model" || c.Variants[1].Repeat != 3 {
		t.Errorf("variant b = %+v", c.Variants[1])
	}
	// Absent seeds attribute: nil list (the engine defaults it).
	empty, err := c.Variants[2].SeedList()
	if err != nil || empty != nil {
		t.Errorf("absent seeds = %v, %v", empty, err)
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	cases := []struct{ name, xml string }{
		{"no name", `<Campaign><Variant name="v" scenario="s.xml"/></Campaign>`},
		{"no variants", `<Campaign name="c"/>`},
		{"no scenario", `<Campaign name="c"><Variant name="v"/></Campaign>`},
		{"duplicate variant", `<Campaign name="c"><Variant name="v" scenario="s.xml"/><Variant name="v" scenario="s.xml"/></Campaign>`},
		{"negative repeat", `<Campaign name="c"><Variant name="v" scenario="s.xml" repeat="-1"/></Campaign>`},
		{"negative workers", `<Campaign name="c" workers="-2"><Variant name="v" scenario="s.xml"/></Campaign>`},
		{"bad seed", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds="x"/></Campaign>`},
		{"inverted range", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds="9-3"/></Campaign>`},
		{"empty seeds", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds=""/></Campaign>`},
		{"separator-only seeds", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds=" , "/></Campaign>`},
		{"double-dash range", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds="1--3"/></Campaign>`},
		{"open-ended range", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds="3-"/></Campaign>`},
		{"range in garbage", `<Campaign name="c"><Variant name="v" scenario="s.xml" seeds="1,2-b"/></Campaign>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseCampaignConfig([]byte(tc.xml)); !errors.Is(err, ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
}
